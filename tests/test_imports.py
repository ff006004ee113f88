"""Start-up cost: the package and its CLI load no scipy module.

scipy is a test-only dependency (the quadrature and lpmv oracles); a cold
`hypnorms` process imports numpy and the standard library only.
"""

import os
import subprocess
import sys


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, hypnorms, hypnorms.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"

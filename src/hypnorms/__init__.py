"""Norm-comparison toolkit for hyperbolic 3-manifolds.

Submodules group by the object being computed: radial profiles and the
density nu (radial), harmonic 1-forms on a ball (ballfield), Margulis-tube
model fields (tubefield), the Gauss-Legendre rule and circle grid of both
(quadrature), norm inequalities (bounds), the symplectic homology action of
a monodromy (homalg), Brown's fibering criterion (fibering), parametric
example families (families), and the named invariant suites (verify).  The
CLI (cli) runs the suites, the nu table and the family tables from one
table of commands, each a function whose parameters are the flags it reads.
The names most scripts need are re-exported here.  They load on first
access (PEP 562), so importing the package does not import numpy.  The
exact layer (bounds, homalg, fibering, the cover and gluing families),
radial, and tubefield's closed forms behind the filling family run without
it; numpy loads only in ballfield and where tubefield or quadrature build
arrays.  Every integer and every real argument follows one rule each
(README, Conventions), both kept in _args.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "radial": ("dpsi", "mode_norm", "nu", "psi"),
    "ballfield": (
        "HarmonicExpansion",
        "ball_l2_norm_sq",
        "check_df_bound",
        "mode_indices",
        "omega_gram",
        "psi_gram",
    ),
    "tubefield": (
        "TubeChart",
        "competitor_margin",
        "competitor_norm_sq",
        "remark_ratio",
        "tube_form_norm",
        "tube_l2_norm_sq",
        "tube_lower_bound",
        "tube_volume",
    ),
    "bounds": (
        "NormDatum",
        "PolytopeNorm",
        "branch_constant",
        "dual_norm",
        "polytope_gauge",
        "supnorm_factor",
        "thm_main_bounds",
    ),
    "homalg": (
        "GROWTH_RATE",
        "MONODROMY",
        "SYMPLECTIC_FORM",
        "fbar_power",
        "mv_generator",
        "symplectic_check",
        "transvection",
        "twist_word_matrix",
    ),
    "fibering": (
        "BrownStatus",
        "X064_RELATOR",
        "brown_status",
        "fibered_characters",
        "parse_word",
    ),
    "families": (
        "CoverFamilyParams",
        "FillingFamilyParams",
        "GluingFamilyParams",
        "cover_family",
        "filling_family",
        "gluing_family",
    ),
    "verify": ("SUITES",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value

"""Norm-comparison toolkit for hyperbolic 3-manifolds.

Submodules group by the object being computed: radial profiles and the
density nu (radial), harmonic 1-forms on a ball (ballfield), Margulis-tube
model fields (tubefield), the Gauss-Legendre rule and circle grid of both
(quadrature), norm inequalities (bounds), the symplectic homology action of
a monodromy (homalg), Brown's fibering criterion (fibering), parametric
example families (families), and the named invariant suites (verify).  The
CLI (cli) runs the suites, the nu table and the family tables from one
table of commands, each a function whose parameters are the flags it reads.
Import a name from the submodule that defines it; that submodule's __all__
is its public API.  Importing the package loads no submodule, so it does
not import numpy.  The exact layer (bounds, homalg, fibering, the cover and
gluing families), radial, and tubefield's closed forms behind the filling
family run without it; numpy loads only in ballfield and where tubefield or
quadrature build arrays.  Every integer and every real argument follows one
rule each (README, Conventions), both kept in _args.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

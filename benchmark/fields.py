"""The `fields` workload: warm quadrature and Gram numerics on seeded inputs.

One round is a fixed list of operations whose shapes never change and
whose values are drawn afresh from (seed, round), so no input repeats.  An
operation is a (kind, inputs) pair; KINDS[kind] holds the run function, which
makes the calls into hypnorms inside the timed window, and the check, which
compares the outputs with refs.py afterwards.  The three radial fault probes
run on fixed inputs.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

import refs
from hypnorms.ballfield import (
    HarmonicExpansion,
    ball_l2_norm_sq,
    check_df_bound,
    expansion_field,
    omega_gram,
    psi_gram,
)
from hypnorms.families import FillingFamilyParams, filling_family
from hypnorms.radial import dpsi, mode_norm, nu, nu_closed, psi
from hypnorms.tubefield import TubeChart, competitor_norm_sq, tube_l2_norm_sq, tube_lower_bound
from refs import Verdict

# Tolerances.  Closed-form routes are held to 1e-11 (observed <= 2e-13 for
# ell <= 12 on [0.01, 300]), quadratures to their epsrel of 1e-10, and the
# seam probe to the 1e-12 that psi's docstring promises.
TOL_ROUTE = 1e-11
TOL_QUAD = 1e-10
TOL_SEAM = 1e-12
TOL_ORTHO = 1e-10

GRAM_SHAPES = ((4, 24), (6, 36), (8, 48))  # (lmax, quadrature order)
BALL_SHAPES = ((2, 24), (3, 24), (4, 24), (4, 32))  # (truncation, order)
# Radii cross the Taylor switch at 0.15 and the series seam at 2.0.
RADIAL_STRATA = ((0.01, 0.15), (0.15, 2.0), (2.0, 10.0), (10.0, 300.0))
RADIAL_PER_STRATUM = 3
COMPETITOR_S = (0.1, -0.1, 0.01, -0.01)
OVERFLOW_RADII = (400.0, 700.0)
SEAM_ELLS = (20, 30, 40)
SEAM_RADII = tuple(2.0 + 0.1 * i for i in range(10))
PROBES = ("radial-overflow", "radial-nonfinite", "radial-seam")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _coeffs(rng: random.Random, lmin: int, lmax: int) -> tuple:
    return tuple(((ell, m), rng.gauss(0.0, 1.0))
                 for ell in range(lmin, lmax + 1) for m in range(-ell, ell + 1))


def make_round(seed: int, k: int) -> list[tuple[str, object]]:
    """The operations of round k for this seed, as (kind, inputs) pairs."""
    rng = random.Random(f"fields:{seed}:{k}")
    ops: list[tuple[str, object]] = []
    ops += [("gram", (lmax, order, rng.uniform(0.2, 3.0))) for lmax, order in GRAM_SHAPES]
    ops += [("ball", (order, rng.uniform(0.3, 3.0), _coeffs(rng, 1, L))) for L, order in BALL_SHAPES]
    ops += [("dfbound", (_log_uniform(rng, 0.1, 5.0), _coeffs(rng, 1, 4), _coeffs(rng, 1, 1)))
            for _ in range(4)]
    ops += [("radial", (rng.randint(1, 10), _log_uniform(rng, lo, hi)))
            for lo, hi in RADIAL_STRATA for _ in range(RADIAL_PER_STRATUM)]
    ops += [("tube", (_log_uniform(rng, 0.05, 1.0), rng.uniform(0.3, 3.0))) for _ in range(2)]
    for _ in range(2):  # the filling shape: eps = 2/n^2, R = asinh n
        n = _log_uniform(rng, 2.0, 1000.0)
        ops.append(("tube", (2.0 / n**2, math.asinh(n))))
    n0 = rng.randint(2, 30)
    ops.append(("filling", tuple(round(n0 * 10 ** (1.5 * i)) for i in range(4))))
    ops += [(name, None) for name in PROBES]
    return ops


def warm_up() -> None:
    """One call to every entry point the workload uses."""
    expansion = HarmonicExpansion({(1, 0): 1.0}, truncation=1)
    chart = TubeChart(0.5, 1.0)
    psi(2, 1.0), dpsi(2, 1.0), nu(1.0), nu_closed(1.0), mode_norm(2, 1.0)
    omega_gram(1, 1.0, order=4), psi_gram(1, 1.0, order=4)
    ball_l2_norm_sq(expansion_field(expansion), 1.0, order=4)
    check_df_bound(expansion, 1.0)
    tube_l2_norm_sq(chart, lambda r, th, z: (0.0, 0.0, 1.0), order=4)
    competitor_norm_sq(chart, 0.1, order=4), tube_lower_bound(chart, order=4)
    filling_family(FillingFamilyParams(), 2)


# -- gram ------------------------------------------------------------------


def run_gram(tr, inp):
    lmax, order, r = inp
    return (tr.call("ballfield.omega_gram", omega_gram, lmax, r, order=order),
            tr.call("ballfield.psi_gram", psi_gram, lmax, r, order=order))


def _max_off_diagonal(g: np.ndarray) -> float:
    d = np.sqrt(np.diag(g))
    return float(np.abs(g / np.outer(d, d) - np.eye(len(g))).max())


def check_gram(inp, out) -> Verdict:
    lmax, order, r = inp
    (omodes, og), (pmodes, pg) = out
    v = Verdict()
    modes = [(ell, m) for ell in range(lmax + 1) for m in range(-ell, ell + 1)]
    v.require(list(omodes) == modes[1:] and list(pmodes) == modes)
    v.require(np.all(np.diag(og) > 0) and np.all(np.diag(pg) > 0))
    v.require(_max_off_diagonal(og) <= TOL_ORTHO and _max_off_diagonal(pg) <= TOL_ORTHO)
    norms = {ell: refs.mode_norm_ref(ell, r) for ell in range(1, lmax + 1)}
    for i, (ell, _) in enumerate(omodes):
        v.close("ballfield", float(og[i, i]), norms[ell], TOL_QUAD)
    # Psi_00 = 1/sqrt(4 pi): its Gram entry is int_0^r sinh^2 = sinh(2r)/4 - r/2.
    v.close("ballfield", float(pg[0, 0]), math.sinh(2 * r) / 4 - r / 2, TOL_QUAD)
    return v


# -- ball L2 norm and the df bound -------------------------------------------


def run_ball(tr, inp):
    order, r, coeffs = inp
    expansion = tr.call("ballfield.HarmonicExpansion", HarmonicExpansion, dict(coeffs),
                        truncation=coeffs[-1][0][0])
    field = tr.call("ballfield.expansion_field", expansion_field, expansion)
    return tr.call("ballfield.ball_l2_norm_sq", ball_l2_norm_sq, field, r, order=order)


def _parseval(coeffs, r):
    """sum a_lm^2 N_ell(r), from the mpmath mode norms."""
    norms: dict[int, object] = {}
    for (ell, _), a in coeffs:
        if ell not in norms:
            norms[ell] = refs.mode_norm_ref(ell, r)
    return sum(a * a * norms[ell] for (ell, _), a in coeffs)


def check_ball(inp, out) -> Verdict:
    order, r, coeffs = inp
    v = Verdict()
    v.close("ballfield", out, _parseval(coeffs, r), TOL_QUAD)
    return v


def run_dfbound(tr, inp):
    r, mixed, pure = inp
    reports = []
    for coeffs in (mixed, pure):
        expansion = tr.call("ballfield.HarmonicExpansion", HarmonicExpansion, dict(coeffs),
                            truncation=coeffs[-1][0][0])
        reports.append(tr.call("ballfield.check_df_bound", check_df_bound, expansion, r))
    return reports


def check_dfbound(inp, out) -> Verdict:
    r, mixed, pure = inp
    v = Verdict()
    sqrt_nu = math.sqrt(refs.nu_ref(r))
    for coeffs, report in zip((mixed, pure), out):
        df = math.sqrt(sum(a * a for (ell, _), a in coeffs if ell == 1) / (3 * math.pi))
        l2 = math.sqrt(_parseval(coeffs, r))
        v.close("ballfield", report.df_at_center, df, TOL_QUAD)
        v.close("ballfield", report.l2_norm, l2, TOL_QUAD)
        v.close("ballfield", report.ratio, df * sqrt_nu / l2, TOL_QUAD)
        v.require(report.ratio <= 1.0 + TOL_QUAD)
    v.close("ballfield", out[1].ratio, 1.0, TOL_QUAD)  # pure degree 1 is sharp
    return v


# -- radial ------------------------------------------------------------------


def run_radial(tr, inp):
    ell, r = inp
    return (tr.call("radial.nu", nu, r), tr.call("radial.nu_closed", nu_closed, r),
            tr.call("radial.mode_norm", mode_norm, ell, r),
            tr.call("radial.psi", psi, ell, r), tr.call("radial.dpsi", dpsi, ell, r))


def check_radial(inp, out) -> Verdict:
    ell, r = inp
    v_nu, v_closed, v_norm, v_psi, v_dpsi = out
    v = Verdict()
    nu_r = refs.nu_ref(r)
    v.close("radial", v_nu, nu_r, TOL_QUAD)
    v.close("radial", v_closed, nu_r, TOL_ROUTE)
    v.close("radial", v_norm, refs.mode_norm_ref(ell, r), TOL_QUAD)
    v.close("radial", v_psi, refs.psi_ref(ell, r), TOL_ROUTE)
    v.close("radial", v_dpsi, refs.dpsi_ref(ell, r), TOL_ROUTE)
    return v


# -- radial fault probes (fixed inputs) ----------------------------------------


def _overflow_calls(r):
    """(name, function, arguments, reference, tolerance); each reference takes the same arguments."""
    return (("nu", nu, (r,), refs.nu_ref, TOL_QUAD),
            ("nu_closed", nu_closed, (r,), refs.nu_ref, TOL_ROUTE),
            ("psi", psi, (3, r), refs.psi_ref, TOL_ROUTE),
            ("dpsi", dpsi, (3, r), refs.dpsi_ref, TOL_ROUTE),
            ("mode_norm", mode_norm, (2, r), refs.mode_norm_ref, TOL_QUAD))


def run_overflow(tr, inp):
    """Past r ~ 355, sinh(r)**2 overflows; every value here is finite."""
    out = []
    for r in OVERFLOW_RADII:
        for name, fn, args, _, _ in _overflow_calls(r):
            try:
                out.append(tr.call(f"radial.{name}", fn, *args))
            except OverflowError:
                out.append(None)
    return out


@functools.cache
def _overflow_refs():
    return [(ref(*args), tol) for r in OVERFLOW_RADII for _, _, args, ref, tol in _overflow_calls(r)]


def check_overflow(inp, out) -> Verdict:
    v = Verdict()
    for value, (ref, tol) in zip(out, _overflow_refs()):
        if value is None:
            v.require(False)
        else:
            v.close("radial", value, ref, tol)
    return v


def run_nonfinite(tr, inp):
    """nu(nan) and psi(2, nan) should raise ValueError."""
    out = []
    for name, fn, args in (("nu", nu, (math.nan,)), ("psi", psi, (2, math.nan))):
        try:
            tr.call(f"radial.{name}", fn, *args)
            out.append("returned")
        except ValueError:
            out.append("ValueError")
    return out


def check_nonfinite(inp, out) -> Verdict:
    v = Verdict()
    v.require(out == ["ValueError", "ValueError"])
    return v


def run_seam(tr, inp):
    return [(tr.call("radial.psi", psi, ell, r), tr.call("radial.dpsi", dpsi, ell, r))
            for ell in SEAM_ELLS for r in SEAM_RADII]


@functools.cache
def _seam_refs():
    return [(refs.psi_ref(ell, r), refs.dpsi_ref(ell, r)) for ell in SEAM_ELLS for r in SEAM_RADII]


def check_seam(inp, out) -> Verdict:
    v = Verdict()
    for (p, d), (p_ref, d_ref) in zip(out, _seam_refs()):
        v.close("radial", p, p_ref, TOL_SEAM)
        v.close("radial", d, d_ref, TOL_SEAM)
    return v


# -- tubes and the filling family --------------------------------------------


def run_tube(tr, inp):
    eps, R = inp
    chart = tr.call("tubefield.TubeChart", TubeChart, eps, R)
    core = lambda r, theta, z: (0.0, 0.0, 1.0 / eps)  # noqa: E731 - the form dz/eps
    return (tr.call("tubefield.tube_l2_norm_sq", tube_l2_norm_sq, chart, core, order=24),
            [tr.call("tubefield.competitor_norm_sq", competitor_norm_sq, chart, s)
             for s in COMPETITOR_S],
            tr.call("tubefield.tube_lower_bound", tube_lower_bound, chart))


def check_tube(inp, out) -> Verdict:
    eps, R = inp
    norm_sq, competitors, lower = out
    ref = refs.tube_norm_ref(eps, R)
    v = Verdict()
    v.close("tubefield", math.sqrt(norm_sq), ref, TOL_QUAD)
    v.close("tubefield", lower, ref, TOL_ROUTE)
    v.require(all(c >= float(ref) ** 2 * (1 - 1e-9) for c in competitors))
    return v


def run_filling(tr, inp):
    params = FillingFamilyParams()
    return [tr.call("families.filling_family", filling_family, params, n) for n in inp]


def check_filling(inp, out) -> Verdict:
    v = Verdict()
    for n, point in zip(inp, out):
        ref = refs.filling_row_ref(n)
        v.close("families", point.harmonic_lower, ref["harmonic_lower"], TOL_ROUTE)
        v.close("families", point.datum.inj, ref["inj"], TOL_ROUTE)
        v.require(point.datum.thurston == ref["thurston"])
        v.close("families", point.ratio, ref["harmonic_lower"] / ref["thurston"], TOL_ROUTE)
    return v


# kind -> (run, check, layer charged when the operation fails)
KINDS = {
    "gram": (run_gram, check_gram, "ballfield"),
    "ball": (run_ball, check_ball, "ballfield"),
    "dfbound": (run_dfbound, check_dfbound, "ballfield"),
    "radial": (run_radial, check_radial, "radial"),
    "tube": (run_tube, check_tube, "tubefield"),
    "filling": (run_filling, check_filling, "families"),
    "radial-overflow": (run_overflow, check_overflow, "radial"),
    "radial-nonfinite": (run_nonfinite, check_nonfinite, "radial"),
    "radial-seam": (run_seam, check_seam, "radial"),
}

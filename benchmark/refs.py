"""Independent references the benchmark checks hypnorms against.

Nothing here imports hypnorms.  Radial quantities come from mpmath and the
defining 2F1 formula; the exact layers get closed forms, an integer
recurrence and a from-scratch implementation of Brown's walk criterion.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

_DPS = 30  # working precision of the radial references


def rel_err(value: float, ref) -> float:
    """|value - ref| / |ref|; both zero (an underflow to 0) counts as exact."""
    ref = float(ref)
    if value == ref:
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)) or ref == 0.0:
        return math.inf
    return abs(value - ref) / abs(ref)


def digits(err: float) -> float:
    """-log10 of a relative error, capped at 16 digits (double precision)."""
    return 16.0 if err <= 1e-16 else max(0.0, -math.log10(err))


class Verdict:
    """The outcome of checking one operation: pass/fail and worst error per layer."""

    def __init__(self):
        self.ok = True
        self.worst: dict[str, float] = {}

    def close(self, layer: str, value: float, ref, tol: float) -> None:
        """value must match ref to relative tolerance tol; the error is recorded."""
        err = rel_err(value, ref)
        self.worst[layer] = max(self.worst.get(layer, 0.0), err)
        self.ok = self.ok and err <= tol

    def require(self, condition) -> None:
        self.ok = self.ok and bool(condition)


# -- radial: psi_ell from its 2F1 definition -------------------------------


def _prefactor(ell: int):
    return mp.gamma(mp.mpf(3) / 2) * mp.gamma(ell + 2) / mp.gamma(ell + mp.mpf(3) / 2)


def psi_ref(ell: int, r: float):
    """Gamma(3/2)Gamma(ell+2)/Gamma(ell+3/2) tanh^ell(r/2) 2F1(-1/2, ell; ell+3/2; tanh^2(r/2))."""
    if ell == 0:
        return mp.mpf(1)
    with mp.workdps(_DPS):
        t = mp.tanh(mp.mpf(r) / 2)
        return _prefactor(ell) * t**ell * mp.hyp2f1(-0.5, ell, ell + 1.5, t * t)


def hyp2f1_near_one(a, b, w):
    """2F1(a, b; a + b; 1 - w) for small w > 0, by Abramowitz-Stegun 15.3.10.

    The logarithmic connection series converges like w^n, and w enters only
    through log(w) and its powers, so it keeps full precision where passing
    z = 1 - w to mp.hyp2f1 would need digits in proportion to log(1/w).
    """
    with mp.workdps(_DPS + 5):
        a, b, w = mp.mpf(a), mp.mpf(b), mp.mpf(w)
        log_w = mp.log(w)
        coeff = mp.mpf(1)  # (a)_n (b)_n / (n!)^2
        total = mp.mpf(0)
        n = 0
        while True:
            term = coeff * (2 * mp.digamma(n + 1) - mp.digamma(a + n) - mp.digamma(b + n) - log_w) * w**n
            total += term
            if abs(term) < mp.eps * abs(total):
                break
            coeff *= (a + n) * (b + n) / (n + 1) ** 2
            n += 1
        return mp.gamma(a + b) / (mp.gamma(a) * mp.gamma(b)) * total


def dpsi_ref(ell: int, r: float):
    """d psi_ell / dr, from the derivative of the 2F1 form.

    Differentiating under Euler's integral and integrating by parts once
    turns the nearly cancelling sum of the direct derivative into one
    positive term,

        psi' = ell(ell+1) t^(ell-1) w^2/4 B(ell+1, 1/2) 2F1(1/2, ell+1; ell+3/2; 1 - w),

    with t = tanh(r/2) and w = sech^2(r/2) = 1 - t^2; test_benchmark.py
    checks it against a five-point difference of psi_ref.
    """
    if ell == 0:
        return mp.mpf(0)
    with mp.workdps(_DPS):
        half = mp.mpf(r) / 2
        t, w = mp.tanh(half), mp.sech(half) ** 2
        if w < 0.1:
            f = hyp2f1_near_one(0.5, ell + 1, w)
        else:
            f = mp.hyp2f1(0.5, ell + 1, ell + 1.5, t * t)
        return ell * (ell + 1) * t ** (ell - 1) * w**2 / 4 * mp.beta(ell + 1, 0.5) * f


def mode_norm_ref(ell: int, r: float):
    """N_ell(r) = psi_ell psi_ell' sinh^2 r (Green's identity)."""
    with mp.workdps(_DPS):
        return psi_ref(ell, r) * dpsi_ref(ell, r) * mp.sinh(mp.mpf(r)) ** 2


def nu_ref(r: float):
    """nu(r) = 6 pi (coth r - r csch^2 r)(r coth r - 1)."""
    with mp.workdps(_DPS + 20):  # both factors cancel ~2 log10(1/r) digits as r -> 0
        r = mp.mpf(r)
        return 6 * mp.pi * (mp.coth(r) - r * mp.csch(r) ** 2) * (r * mp.coth(r) - 1)


def supnorm_factor_ref(inj: float, mu: float):
    """1/sqrt(nu(inj)) from inj = mu/2 up; sqrt(mu/nu(mu/2))/sqrt(inj) below it."""
    if inj >= mu / 2:
        return 1 / mp.sqrt(nu_ref(inj))
    return mp.sqrt(mu / nu_ref(mu / 2)) / math.sqrt(inj)


# -- tubes and the filling family -------------------------------------------


def tube_norm_ref(epsilon: float, R: float):
    """L2 norm of dz/epsilon over the tube: sqrt((2 pi/epsilon) log cosh R)."""
    with mp.workdps(_DPS):
        return mp.sqrt(2 * mp.pi / epsilon * mp.log(mp.cosh(R)))


def filling_row_ref(n: int) -> dict:
    """The default filling model at n: inj = 1/n^2, eps = 2/n^2, R = asinh n."""
    inj = 1.0 / float(n) ** 2
    return {
        "inj": inj,
        "thurston": float(n - 1),
        "harmonic_lower": tube_norm_ref(2.0 * inj, math.asinh(n)),
    }


# -- exact integer algebra -------------------------------------------------


def block_power(n: int) -> tuple[int, int, int, int]:
    """Entries of [[3, -1], [1, 0]]**n by Cayley-Hamilton: M^(k+1) = 3 M^k - M^(k-1)."""
    prev, cur = (1, 0, 0, 1), (3, -1, 1, 0)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, tuple(3 * c - p for c, p in zip(cur, prev))
    return cur


def int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def is_symplectic(m, form) -> bool:
    """m^T form m == form, in exact integers."""
    return int_matmul(int_matmul([list(c) for c in zip(*m)], form), m) == [list(r) for r in form]


def word_letters(text: str) -> tuple[int, ...]:
    """Letters of a word written like "a^2bA": a, A, b, B = +1, -1, +2, -2."""
    out: list[int] = []
    i = 0
    while i < len(text):
        letter = {"a": 1, "A": -1, "b": 2, "B": -2}[text[i]]
        i += 1
        power = 1
        if text[i:i + 1] == "^":
            j = i + 1 + (text[i + 1] == "-")
            while j < len(text) and text[j].isdigit():
                j += 1
            power = int(text[i + 1:j])
            i = j
        out.extend([letter if power > 0 else -letter] * abs(power))
    return tuple(out)


def cyclic_reduce(letters) -> tuple[int, ...]:
    """Free then cyclic reduction of a word in letters +-1 (a), +-2 (b)."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    while len(stack) >= 2 and stack[0] == -stack[-1]:
        stack = stack[1:-1]
    return tuple(stack)


def brown_ref(letters, p: int, q: int) -> str:
    """Brown's criterion: min and max of the partial-sum walk attained once.

    The walk runs over one period of the cyclically reduced relator.  The
    answer is one of the values of hypnorms' BrownStatus enum.
    """
    w = cyclic_reduce(letters)
    step = {1: p, -1: -p, 2: q, -2: -q}
    if (p, q) == (0, 0) or sum(step[x] for x in w) != 0:
        return "not_applicable"
    walk = [0]
    for x in w[:-1]:
        walk.append(walk[-1] + step[x])
    once = (walk.count(min(walk)) == 1) + (walk.count(max(walk)) == 1)
    return ("neither", "one_direction", "both_directions")[once]


def fibered_ref(letters, bound: int) -> set[tuple[int, int]]:
    """Primitive (p, q) with |p|, |q| <= bound that fiber in both directions."""
    return {
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if math.gcd(p, q) == 1 and brown_ref(letters, p, q) == "both_directions"
    }


# -- polytope norms in closed form -----------------------------------------


def box_gauge(scale, x) -> Fraction:
    """Gauge of the box prod [-s_i, s_i] (a scaled cube): max |x_i| / s_i."""
    return max(abs(Fraction(xi)) / s for xi, s in zip(x, scale))


def box_dual(scale, y) -> Fraction:
    return sum(abs(Fraction(yi)) * s for yi, s in zip(y, scale))


def cross_gauge(scale, x) -> Fraction:
    """Gauge of the hull of +-s_i e_i (a scaled cross-polytope): sum |x_i| / s_i."""
    return sum(abs(Fraction(xi)) / s for xi, s in zip(x, scale))


def cross_dual(scale, y) -> Fraction:
    return max(abs(Fraction(yi)) * s for yi, s in zip(y, scale))


def vertex_dual(vertices, y) -> Fraction:
    """Support function of the hull of the vertices, exactly: max <v, y>."""
    return max(sum(Fraction(vi) * Fraction(yi) for vi, yi in zip(v, y)) for v in vertices)

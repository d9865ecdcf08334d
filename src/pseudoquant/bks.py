"""Pairing analysis for the quadratic momentum observable under monomial
connection deformations.

Momentum-type deformations f = (lambda/2) * alpha^n break the pairing: the
term-by-term tau-power classification always contains a divergent leading
term.  Position-type deformations f = beta^n, n >= 0, give a finite pairing whose
effective kinetic coefficient is -hbar^2/2 * (1 + 2*beta^n)^(-3/2); n = 0 is
the undeformed pairing, with the free coefficient -hbar^2/2.  Their one owner,
``PositionDeformation``, is read by this pairing and by ``dynamics``.

Classification is exact rational arithmetic throughout; the oscillatory
moments that weight surviving terms are evaluated analytically via Gamma
closed forms and cross-checked by a Gaussian-regulator quadrature that is
extrapolated to vanishing regulator.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence


class SingularSampleError(ValueError):
    """A sample point hits the coefficient singularity 1 + 2*beta^n <= 0."""


@dataclass(frozen=True)
class PositionDeformation:
    """The position deformation f = q^n, sole owner of its weight w(q) = 1 + 2*q^n.

    n = 0 is undeformed (w = 1).  The pairing's kinetic coefficient is
    -hbar^2/2 * c with the kinetic profile c = w^(-3/2), and w^(3/2) = 1/c is
    the weight whose norm the evolution conserves.  q is a float or a numpy
    array; every method is elementwise.
    """

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("deformation order n must be >= 0")

    def weight(self, q):
        return 1.0 + 2.0 * q**self.n if self.n else q * 0.0 + 1.0

    def singular(self, q):
        """True where w(q) <= 0, the coefficient singularity."""
        return self.weight(q) <= 0.0

    def kinetic_profile(self, q):
        return self.weight(q) ** (-1.5)

    def conserved_weight(self, q):
        return self.weight(q) ** 1.5

    def domain(self, q_max: float) -> tuple[float, float]:
        """Grid interval clear of w <= 0: odd n starts 10% inside the root of w."""
        if self.n % 2:
            return (-(0.5 ** (1.0 / self.n)) * 0.9, q_max)
        return (-q_max, q_max)


@dataclass(frozen=True)
class DeformationSpec:
    """Momentum deformation f = (lam/2) * alpha^n; hbar only enters the oscillatory moments."""

    n: int = 1
    lam: Fraction = Fraction(1)
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("deformation order n must be >= 1")
        if self.lam == 0:
            raise ValueError("deformation magnitude must be nonzero")
        _check_hbar(self.hbar)


def _check_hbar(hbar: float) -> None:
    if not (hbar > 0 and math.isfinite(hbar)):
        raise ValueError("hbar must be positive and finite")


DIVERGES = "Diverges"
VANISHES = "Vanishes"
FINITE_CANDIDATE = "FiniteCandidate"


@dataclass(frozen=True)
class BKSTermReport:
    """Classification record for one term of the tau expansion."""

    n: int
    m: int
    j: int
    exponent: Fraction
    alt_exponent: Fraction
    j_critical: Fraction
    classification: str
    mu_moment: complex | None = None


@dataclass(frozen=True)
class PairingResult:
    """Outcome of evaluating a pairing: convergence, coefficient profile, prefactor."""

    converges: bool
    effective_coefficient: Callable[[float], complex]
    normalization: complex


# -- exact exponent bookkeeping ------------------------------------------------


def exponent(n: int, m: int, j: int) -> Fraction:
    """Tau power of the (n, m, j) term, primary formula: -1/2 + m - 1/(2n) + j*n/(n+2)."""
    if n < 1 or m < 0 or j < 0:
        raise ValueError("need n >= 1, m >= 0, j >= 0")
    return Fraction(-1, 2) + m - Fraction(1, 2 * n) + Fraction(j * n, n + 2)


def alt_exponent(n: int, m: int, j: int) -> Fraction:
    """Independent tau power from the substitution mu = alpha * tau^(1/(n+2)).

    The measure contributes tau^(-1/(n+2)) where the primary formula carries
    tau^(-1/(2n)); the two agree exactly at n = 2 and differ otherwise.
    Both are reported, never averaged.
    """
    if n < 1 or m < 0 or j < 0:
        raise ValueError("need n >= 1, m >= 0, j >= 0")
    return Fraction(-1, 2) + m - Fraction(1, n + 2) + Fraction(j * n, n + 2)


def critical_j(n: int, m: int) -> Fraction:
    """The unique rational j' with exponent(n, m, j') = 0."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1, m >= 0")
    return Fraction((n + 2) * (n - 2 * m * n + 1), 2 * n * n)


def classify_term(n: int, m: int, j: int, d: DeformationSpec | None = None) -> BKSTermReport:
    e = exponent(n, m, j)
    if e < 0:
        cls = DIVERGES
    elif e == 0:
        cls = FINITE_CANDIDATE
    else:
        cls = VANISHES
    mu = None if d is None else oscillatory_moment(j, n + 2, float(d.lam) / (2.0 * d.hbar))
    return BKSTermReport(n, m, j, e, alt_exponent(n, m, j), critical_j(n, m), cls, mu)


def _j_top(n: int, m: int) -> int:
    """The last j that ``classify_pairing`` lists for m: two past the critical j'."""
    return max(0, math.ceil(critical_j(n, m))) + 2


def classify_rows(n: int, m_max: int) -> int:
    """The row count of ``classify_pairing`` at order n and m_max >= 0, without building the rows.

    For m >= 1, n - 2mn + 1 <= 1 - n <= 0, so j' <= 0 and each such m lists j = 0, 1, 2.
    """
    return _j_top(n, 0) + 1 + 3 * m_max


def classify_pairing(d: DeformationSpec, m_max: int) -> tuple[list[BKSTermReport], bool]:
    """Full term table for a momentum deformation, plus the convergence verdict.

    Each m lists j = 0 .. max(0, ceil(j')) + 2, two terms past its critical j'.

    The verdict is always non-convergent: the leading (m=0, j=0) term has a
    strictly negative tau power for every n >= 1.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    reports: list[BKSTermReport] = []
    for m in range(m_max + 1):
        for j in range(_j_top(d.n, m) + 1):
            reports.append(classify_term(d.n, m, j, d))
    converges = all(r.classification != DIVERGES for r in reports)
    return reports, converges


# -- oscillatory moments -------------------------------------------------------


def oscillatory_moment(j: int, k: int, a: float) -> complex:
    """Analytic value of integral over R of mu^(2j) * exp(i*a*mu^k) d(mu).

    Evaluated by rotating the half-line contour to a Gamma integral; odd k
    combines the two rotated branches into twice the real part.
    """
    if k < 2:
        raise ValueError("phase power k must be >= 2 for an integrable oscillation")
    if a == 0:
        raise ValueError("stationary phase parameter a must be nonzero")
    s = 2 * j + 1
    mag = abs(a)
    half = (1.0 / k) * math.gamma(s / k) * mag ** (-s / k) * cmath.exp(1j * math.pi * s / (2 * k))
    return _full_line(half, k, a)


def _full_line(half: complex, k: int, a: float) -> complex:
    """The full-line moment from the half-line one at |a|.

    Even k doubles it, odd k takes twice its real part, and a < 0 conjugates.
    """
    full = 2.0 * half if k % 2 == 0 else complex(2.0 * half.real, 0.0)
    return full.conjugate() if a < 0 else full


def _scipy_extension(name: str):
    """The compiled module ``scipy.<name>``, loaded without running scipy's package ``__init__``s.

    A module already in ``sys.modules`` is returned as it is, so a caller that imported it
    through scipy's packages first shares its objects.  Raises ImportError if the file is missing.
    """
    full = "scipy." + name
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError(f"{full} needs scipy, which is not installed", name=full)
    directory = os.path.join(os.path.dirname(scipy.origin), *name.split(".")[:-1])
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(full)
    if spec is None:
        raise ImportError(f"no compiled module {full} in {directory}", name=full)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(full, module)


def _quadpack_value(result: tuple[float, float, int]) -> float:
    """The integral of a QUADPACK (value, error, ier) triple.

    ier 1-5 and 7 mark a value short of the requested accuracy; it is kept, since the
    callers cross-check it against the closed form.  Any other nonzero ier (6: invalid
    input) raises ValueError.
    """
    value, _, ier = result
    if ier not in (0, 1, 2, 3, 4, 5, 7):
        raise ValueError(f"QUADPACK rejected the integral (ier={ier})")
    return value


def _regulated_half_line(j: int, k: int, a: float, eps: float) -> complex:
    """(1/k) * integral_0^inf u^(c-1) e^(-eps*u^(2/k)) e^(i*a*u) du, c = (2j+1)/k.

    QUADPACK (Piessens et al., 1983) integrates [0, 1] with QAWS, against the algebraic
    endpoint weight u^(c-1), and [1, inf) with QAWF, against the Fourier weights cos(a*u)
    and sin(a*u).  The compiled routines get the arguments ``scipy.integrate.quad`` gives
    them for these weights, with its default of 50 Chebyshev moments.
    """
    quadpack = _scipy_extension("integrate._quadpack")  # only the quadrature oracle needs it
    c = (2 * j + 1) / k
    p = 2.0 / k

    def damp(u):
        return math.exp(-eps * u**p)

    out = []
    for trig, integr in ((math.cos, 1), (math.sin, 2)):
        near = quadpack._qawse(lambda u: trig(a * u) * damp(u), 0.0, 1.0, (c - 1.0, 0.0),
                               1, (), 0, 1e-12, 1e-12, 400)
        far = quadpack._qawfe(lambda u: u ** (c - 1.0) * damp(u), 1.0, a, integr,
                              (), 0, 1e-12, 400, 400, 50)
        out.append(_quadpack_value(near) + _quadpack_value(far))
    return (out[0] + 1j * out[1]) / k


def _neville_to_zero(xs: Sequence[float], ys: Sequence[complex]) -> complex:
    tbl = list(ys)
    n = len(tbl)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            tbl[i] = (x0 * tbl[i + 1] - x1 * tbl[i]) / (x0 - x1)
    return tbl[0]


def oscillatory_moment_quadrature(j: int, k: int, a: float) -> complex:
    """Gaussian-regulator oracle for ``oscillatory_moment``.

    Computes the regulated integral with weight exp(-eps*mu^2) by direct
    quadrature for the geometric ladder of regulators eps = 0.3 / 3^i,
    i = 0..7, and extrapolates eps -> 0 (Neville on the polynomial
    expansion in eps).  Independent of the contour-rotation route.
    """
    if k < 2 or a == 0:
        raise ValueError("need k >= 2 and a != 0")
    eps_ladder = [0.3 / 3.0**i for i in range(8)]
    vals = [_regulated_half_line(j, k, abs(a), eps) for eps in eps_ladder]
    return _full_line(_neville_to_zero(eps_ladder, vals), k, a)


# -- position deformations: the surviving Schroedinger coefficient -------------


def surviving_position_terms(n: int) -> list[tuple[int, tuple[int, ...], Fraction]]:
    """Enumerate (F-expansion order, correction factors, tau power) that survive.

    Scans F-expansion orders 0..6 with up to two correction factors.  A term
    survives the tau -> 0 derivative limit iff its tau power equals 1 and its
    mu-integrand parity is even.  The only survivor is the bare second-order
    term.

    Factor jj adds jj/2 + 1 >= 3/2 to the tau power and order lam adds
    lam/2 >= 0, so a combination is extended only while its factors' power
    stays at most 1, in increasing jj: the scan takes time linear in n.
    """
    survivors = []
    combos: list[tuple[tuple[int, ...], Fraction]] = [((), Fraction(0))]  # factors, their power
    for _ in range(2):
        for extra, power in list(combos):
            for jj in range(1, n + 1):
                grown = power + Fraction(jj, 2) + 1
                if grown > 1:
                    break  # a larger jj adds more
                combos.append((extra + (jj,), grown))
    for lam in range(7):
        for extra, factors_power in combos:
            power = Fraction(lam, 2) + factors_power
            mu_power = lam + sum(extra)
            if power == 1 and mu_power % 2 == 0:
                survivors.append((lam, tuple(sorted(extra)), power))
    return sorted(set(survivors))


def schrodinger_prefactor(hbar: float) -> complex:
    """The pairing prefactor sqrt(2*pi*hbar) * exp(i*pi/4) that gets absorbed."""
    return math.sqrt(2.0 * math.pi * hbar) * cmath.exp(1j * math.pi / 4)


def position_pairing(n: int, hbar: float = 1.0) -> PairingResult:
    """The finite pairing for the deformation f = beta^n, n >= 0.

    Its ``effective_coefficient(beta)`` is the second-derivative coefficient
    -hbar^2/2 * w(beta)^(-3/2) of ``PositionDeformation(n)`` after absorbing
    the standard prefactor; n = 0 is the undeformed pairing (w = 1).  A
    non-finite beta raises ValueError, and a sample on the w <= 0 locus raises
    ``SingularSampleError``.
    """
    deformation = PositionDeformation(n)
    _check_hbar(hbar)
    norm = schrodinger_prefactor(hbar)

    def effective_coefficient(beta: float) -> complex:
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got beta = {beta}")
        if deformation.singular(beta):
            raise SingularSampleError(f"beta = {beta} hits the singular locus 1 + 2*beta^{n} <= 0")
        a = deformation.weight(beta) / (2.0 * hbar)
        # Raw second-derivative weight -(1/2) * moment(mu^2, phase a*mu^2);
        # i*hbar*dpsi/dt = -prefactor * (coefficient * psi''), hence the -norm.
        return 1j * hbar * (-0.5 * oscillatory_moment(1, 2, a)) / (-norm)

    converges = surviving_position_terms(n) == [(2, (), Fraction(1))]
    return PairingResult(converges, effective_coefficient, norm)


__all__ = [
    "BKSTermReport",
    "DeformationSpec",
    "DIVERGES",
    "FINITE_CANDIDATE",
    "PairingResult",
    "PositionDeformation",
    "SingularSampleError",
    "VANISHES",
    "alt_exponent",
    "classify_pairing",
    "classify_rows",
    "classify_term",
    "critical_j",
    "exponent",
    "oscillatory_moment",
    "oscillatory_moment_quadrature",
    "position_pairing",
    "schrodinger_prefactor",
    "surviving_position_terms",
]

"""Pairing analysis for the quadratic momentum observable under monomial
connection deformations.

Momentum-type deformations f = (lambda/2) * alpha^n break the pairing: the
term-by-term tau-power classification always contains a divergent leading
term.  Position-type deformations f = beta^n give a finite pairing whose
effective kinetic coefficient is -hbar^2/2 * (1 + 2*beta^n)^(-3/2); their one
owner, ``PositionDeformation``, is read by this pairing and by ``dynamics``.

Classification is exact rational arithmetic throughout; the oscillatory
moments that weight surviving terms are evaluated analytically via Gamma
closed forms and cross-checked by a Gaussian-regulator quadrature that is
extrapolated to vanishing regulator.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
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
    details: dict = field(default_factory=dict, compare=False)


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


def classify_pairing(
    d: DeformationSpec, m_max: int, j_extra: int = 2
) -> tuple[list[BKSTermReport], bool]:
    """Full term table for a momentum deformation, plus the convergence verdict.

    The verdict is always non-convergent: the leading (m=0, j=0) term has a
    strictly negative tau power for every n >= 1.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    reports: list[BKSTermReport] = []
    for m in range(m_max + 1):
        jc = critical_j(d.n, m)
        j_hi = max(0, math.ceil(jc)) + j_extra
        for j in range(j_hi + 1):
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
    if k % 2 == 0:
        full = 2.0 * half
    else:
        full = complex(2.0 * half.real, 0.0)
    if a < 0:
        full = full.conjugate()
    return full


def _regulated_half_line(j: int, k: int, a: float, eps: float) -> complex:
    """(1/k) * integral_0^inf u^(c-1) e^(-eps*u^(2/k)) e^(i*a*u) du, c = (2j+1)/k."""
    from scipy import integrate  # only the quadrature oracle needs scipy

    c = (2 * j + 1) / k
    p = 2.0 / k

    def damp(u):
        return math.exp(-eps * u**p)

    with warnings.catch_warnings():
        # The oscillatory tail extrapolation is noisy but its accuracy is
        # cross-validated against the closed form by the callers.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return _regulated_half_line_pieces(j, k, a, eps, c, damp)


def _regulated_half_line_pieces(j, k, a, eps, c, damp) -> complex:
    from scipy import integrate

    out = []
    for trig, weight in ((math.cos, "cos"), (math.sin, "sin")):
        # [0, 1]: algebraic endpoint weight u^(c-1) handled by QAWS.
        near, _ = integrate.quad(
            lambda u: trig(a * u) * damp(u),
            0.0,
            1.0,
            weight="alg",
            wvar=(c - 1.0, 0.0),
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        # [1, inf): Fourier weight with decaying amplitude handled by QAWF.
        far, _ = integrate.quad(
            lambda u: u ** (c - 1.0) * damp(u),
            1.0,
            math.inf,
            weight=weight,
            wvar=a,
            epsabs=1e-12,
            limlst=400,
            limit=400,
        )
        out.append(near + far)
    return (out[0] + 1j * out[1]) / k


def _neville_to_zero(xs: Sequence[float], ys: Sequence[complex]) -> complex:
    tbl = list(ys)
    n = len(tbl)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            tbl[i] = (x0 * tbl[i + 1] - x1 * tbl[i]) / (x0 - x1)
    return tbl[0]


def oscillatory_moment_quadrature(
    j: int, k: int, a: float, eps0: float = 0.3, levels: int = 8, ratio: float = 3.0
) -> complex:
    """Gaussian-regulator oracle for ``oscillatory_moment``.

    Computes the regulated integral with weight exp(-eps*mu^2) by direct
    quadrature for a geometric ladder of regulators and extrapolates
    eps -> 0 (Neville on the polynomial expansion in eps).  Independent of
    the contour-rotation route.
    """
    if k < 2 or a == 0:
        raise ValueError("need k >= 2 and a != 0")
    sign = 1.0
    if a < 0:
        a, sign = -a, -1.0
    eps_ladder = [eps0 / ratio**i for i in range(levels)]
    vals = [_regulated_half_line(j, k, a, eps) for eps in eps_ladder]
    half = _neville_to_zero(eps_ladder, vals)
    if k % 2 == 0:
        full = 2.0 * half
    else:
        full = complex(2.0 * half.real, 0.0)
    if sign < 0:
        full = full.conjugate()
    return full


# -- position deformations: the surviving Schroedinger coefficient -------------


def position_series_orders(n: int) -> list[Fraction]:
    """Tau orders contributed by the flow-phase correction series.

    The identity component sits at tau^0; the j-th correction factor adds
    tau^(j/2 + 1), so the lowest nontrivial order is 3/2.
    """
    return [Fraction(0)] + [Fraction(j, 2) + 1 for j in range(1, n + 1)]


def surviving_position_terms(
    n: int, lambda_max: int = 6, series_depth: int = 2
) -> list[tuple[int, tuple[int, ...], Fraction]]:
    """Enumerate (F-expansion order, correction factors, tau power) that survive.

    A term survives the tau -> 0 derivative limit iff its tau power equals 1
    and its mu-integrand parity is even.  The only survivor is the bare
    second-order term.
    """
    survivors = []
    combos: list[tuple[int, ...]] = [()]
    for _ in range(series_depth):
        combos += [c + (jj,) for c in combos for jj in range(1, n + 1)]
    for lam in range(lambda_max + 1):
        for extra in combos:
            power = Fraction(lam, 2) + sum(Fraction(jj, 2) + 1 for jj in extra)
            mu_power = lam + sum(extra)
            if power == 1 and mu_power % 2 == 0:
                survivors.append((lam, tuple(sorted(extra)), power))
    return sorted(set(survivors))


def schrodinger_prefactor(hbar: float) -> complex:
    """The pairing prefactor sqrt(2*pi*hbar) * exp(i*pi/4) that gets absorbed."""
    return math.sqrt(2.0 * math.pi * hbar) * cmath.exp(1j * math.pi / 4)


def _kinetic_raw(a: float) -> complex:
    """Raw second-derivative pairing weight -(1/2) * moment(mu^2, phase a*mu^2)."""
    return -0.5 * oscillatory_moment(1, 2, a)


def position_pairing(n: int, hbar: float = 1.0) -> PairingResult:
    """The finite pairing for the deformation f = beta^n.

    Its ``effective_coefficient(beta)`` is the second-derivative coefficient
    -hbar^2/2 * w(beta)^(-3/2) of ``PositionDeformation(n)`` after absorbing
    the standard prefactor; a sample on the w <= 0 locus raises
    ``SingularSampleError``.
    """
    if n < 1:
        raise ValueError("deformation order n must be >= 1")
    _check_hbar(hbar)
    deformation = PositionDeformation(n)
    norm = schrodinger_prefactor(hbar)

    def effective_coefficient(beta: float) -> complex:
        if deformation.singular(beta):
            raise SingularSampleError(f"beta = {beta} hits the singular locus 1 + 2*beta^{n} <= 0")
        a = deformation.weight(beta) / (2.0 * hbar)
        # i*hbar*dpsi/dt = -prefactor * (coefficient * psi''), hence the -norm.
        return 1j * hbar * _kinetic_raw(a) / (-norm)

    converges = surviving_position_terms(n) == [(2, (), Fraction(1))]
    return PairingResult(converges, effective_coefficient, norm)


def standard_schrodinger_check(hbar: float = 1.0) -> PairingResult:
    """Undeformed pairing: recover the free kinetic weight and unit potential.

    Returns the normalized kinetic coefficient (-hbar^2/2) and the unit
    potential weight.
    """
    norm = schrodinger_prefactor(hbar)
    a0 = 1.0 / (2.0 * hbar)
    kinetic = 1j * hbar * _kinetic_raw(a0) / (-norm)

    # lambda = 0 term: tau-independent sqrt(2*pi*hbar)e^{i pi/4} times
    # exp(-i V tau / hbar); the tau derivative extracts -iV/hbar.
    lambda0_weight = math.sqrt(math.pi / a0) * cmath.exp(1j * math.pi / 4)
    potential_unit = 1j * hbar * (-1.0) * (-1j / hbar) * lambda0_weight / (-norm)

    details = {"kinetic": kinetic, "potential_unit": potential_unit}
    return PairingResult(True, lambda beta: kinetic, norm, details)


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
    "classify_term",
    "critical_j",
    "exponent",
    "oscillatory_moment",
    "oscillatory_moment_quadrature",
    "position_pairing",
    "position_series_orders",
    "schrodinger_prefactor",
    "standard_schrodinger_check",
    "surviving_position_terms",
]

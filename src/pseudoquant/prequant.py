"""Pseudo-prequantum operators: construction, composition and commutators.

An observable A quantises to the first-order differential operator

    op(A) = -i*hbar*X_A + (A - Theta(X_A))

where Theta is the connection potential of the curvature two-form
Omega = d(Theta).  Commutators are computed structurally (operator
composition with Leibniz expansion) and, independently, from the
closed-form right-hand side

    -i*hbar * [ -i*hbar*X_{A,B} - Theta(X_{A,B}) - Omega(X_A, X_B) + 2{A,B} ]

which serves as an exact oracle for the structural route.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Mapping

from .symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    SmoothMap,
    VectorField,
    contract,
    exterior_d,
    hamiltonian_vf,
    poisson,
    pullback_form,
    standard_potential,
    standard_symplectic,
)


class ConnectionData:
    """A connection potential together with its cached curvature.

    ``theta`` is the potential one-form, ``omega_curv = d(theta)`` the
    curvature, and ``base_omega`` the chart's standard symplectic form.
    """

    __slots__ = ("chart", "theta", "omega_curv", "base_omega")

    def __init__(self, theta: OneForm):
        chart = theta.chart
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega_curv", exterior_d(theta))
        object.__setattr__(self, "base_omega", standard_symplectic(chart))

    def __setattr__(self, name, value):
        raise AttributeError("ConnectionData is immutable")

    @staticmethod
    def standard(chart: ChartSpec) -> "ConnectionData":
        return ConnectionData(standard_potential(chart))

    def is_flat_shift_of(self, other: "ConnectionData") -> bool:
        """True when the two potentials differ by a closed one-form."""
        return exterior_d(self.theta - other.theta).is_zero()


class FormalOperator:
    """Finite sum of (Poly coefficient) x (mixed partial derivative).

    Terms map a derivative multi-index over (d/dalpha_i, d/dbeta_i) to a
    Poly coefficient; application to functions uses Leibniz expansion.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: ChartSpec, terms: Mapping[tuple[int, ...], Poly] | None = None):
        clean: dict[tuple[int, ...], Poly] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != 2 * chart.n or min(idx) < 0:
                raise ChartError(f"bad derivative multi-index {idx}")
            if coeff.chart is not chart and coeff.chart != chart:
                raise ChartError("operator coefficient on the wrong chart")
            if not coeff.is_zero():
                clean[idx] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FormalOperator is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: Poly) -> "FormalOperator":
        """Multiplication operator."""
        return FormalOperator(p.chart, {(0,) * (2 * p.chart.n): p})

    @staticmethod
    def from_vector_field(X: VectorField) -> "FormalOperator":
        chart = X.chart
        terms: dict[tuple[int, ...], Poly] = {}
        for i, comp in enumerate(X.comps):
            if comp.is_zero():
                continue
            idx = [0] * (2 * chart.n)
            idx[i] = 1
            terms[tuple(idx)] = comp
        return FormalOperator(chart, terms)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FormalOperator)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        return max((sum(idx) for idx in self.terms), default=0)

    def is_multiplication_by(self) -> Poly | None:
        """The multiplier Poly when this is a pure multiplication operator."""
        if not self.terms:
            return Poly.zero(self.chart)
        zero_idx = (0,) * (2 * self.chart.n)
        if set(self.terms) == {zero_idx}:
            return self.terms[zero_idx]
        return None

    def __add__(self, other: "FormalOperator") -> "FormalOperator":
        if other.chart != self.chart:
            raise ChartError("chart mismatch")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            s = terms.get(idx)
            terms[idx] = c if s is None else s + c
        return FormalOperator(self.chart, terms)

    def __neg__(self):
        return FormalOperator(self.chart, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p: Poly | int) -> "FormalOperator":
        """Left multiplication by a function or constant."""
        if isinstance(p, Poly):
            return FormalOperator(self.chart, {i: c * p for i, c in self.terms.items()})
        return FormalOperator(self.chart, {i: c.scale(p) for i, c in self.terms.items()})

    # -- action and composition ---------------------------------------------

    def _derive(self, p: Poly, idx: tuple[int, ...]) -> Poly:
        coords = self.chart.coords
        for i, k in enumerate(idx):
            for _ in range(k):
                p = p.partial(coords[i])
        return p

    def apply(self, p: Poly) -> Poly:
        """Apply to a polynomial section."""
        if p.chart != self.chart:
            raise ChartError("chart mismatch")
        out = Poly.zero(self.chart)
        for idx, c in self.terms.items():
            out = out + c * self._derive(p, idx)
        return out

    def compose(self, other: "FormalOperator") -> "FormalOperator":
        """Operator product self . other with Leibniz expansion."""
        if other.chart != self.chart:
            raise ChartError("chart mismatch")
        chart = self.chart
        m = 2 * chart.n
        result: dict[tuple[int, ...], Poly] = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                # D^a (d D^b) = sum_{k <= a} C(a,k) (D^k d) D^{a-k+b}
                for k in _sub_multi_indices(a):
                    dk = self._derive(d, k)
                    if dk.is_zero():
                        continue
                    factor = 1
                    for ai, ki in zip(a, k):
                        if ki:
                            factor *= comb(ai, ki)
                    idx = tuple(ai - ki + bi for ai, ki, bi in zip(a, k, b))
                    piece = c * dk
                    if factor != 1:
                        piece = piece.scale(factor)
                    prev = result.get(idx)
                    result[idx] = piece if prev is None else prev + piece
        return FormalOperator(chart, result)

    def __str__(self):
        if not self.terms:
            return "0"
        coords = self.chart.coords
        parts = []
        for idx, c in sorted(self.terms.items()):
            dd = "*".join(
                f"d/d{nm}" if k == 1 else f"d^{k}/d{nm}^{k}"
                for nm, k in zip(coords, idx)
                if k
            )
            cs = str(c)
            if len(c.nums) > 1:
                cs = f"({cs})"
            parts.append(f"{cs}*{dd}" if dd else cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _sub_multi_indices(a: tuple[int, ...]):
    """All multi-indices k with 0 <= k <= a componentwise."""
    return product(*(range(ai + 1) for ai in a))


# -- quantisation ------------------------------------------------------------


def quantise(A: Poly, c: ConnectionData) -> FormalOperator:
    """Pseudo-prequantum operator of an observable A for connection data c."""
    if A.chart != c.chart:
        raise ChartError("observable and connection live on different charts")
    X = hamiltonian_vf(A)
    first = FormalOperator.from_vector_field(X).scale(Poly.minus_i_hbar(A.chart))
    zeroth = FormalOperator.from_poly(A - contract(c.theta, X))
    return first + zeroth


def commutator(op_a: FormalOperator, op_b: FormalOperator) -> FormalOperator:
    """Structural commutator op_a . op_b - op_b . op_a."""
    return op_a.compose(op_b) - op_b.compose(op_a)


def commutator_rhs(A: Poly, B: Poly, c: ConnectionData) -> FormalOperator:
    """Closed-form commutator of the quantised observables; exact oracle."""
    chart = A.chart
    if B.chart != chart or c.chart != chart:
        raise ChartError("chart mismatch")
    P = poisson(A, B)
    XP = hamiltonian_vf(P)
    minus_ihbar = Poly.minus_i_hbar(chart)
    inner = FormalOperator.from_vector_field(XP).scale(minus_ihbar)
    zeroth = (
        -contract(c.theta, XP)
        - c.omega_curv.pair(hamiltonian_vf(A), hamiltonian_vf(B))
        + P.scale(2)
    )
    inner = inner + FormalOperator.from_poly(zeroth)
    return inner.scale(minus_ihbar)


def phase_conjugate(op: FormalOperator, g: Poly) -> FormalOperator:
    """Conjugation exp(-i g / hbar) . op . exp(i g / hbar) for first-order ops.

    Requires every first-order coefficient to carry an explicit hbar factor,
    as every quantised observable (and commutator of two of them) does.
    """
    chart = op.chart
    if op.order() > 1:
        raise ValueError("phase conjugation implemented for order <= 1 operators")
    coords = chart.coords
    zero_idx = (0,) * (2 * chart.n)
    shift = Poly.zero(chart)
    for idx, coeff in op.terms.items():
        if sum(idx) != 1:
            continue
        i = idx.index(1)
        # (coeff * d_i) picks up coeff * (i/hbar) * dg/dx_i on conjugation.
        shift = shift + coeff.div_minus_i_hbar() * g.partial(coords[i])
    terms = dict(op.terms)
    terms[zero_idx] = terms.get(zero_idx, Poly.zero(chart)) + shift
    return FormalOperator(chart, terms)


# -- pullback quantisation ----------------------------------------------------


class PullbackSetup:
    """A polynomial map into a prequantised target plus the induced data.

    The induced connection over the source chart pulls back both the target
    potential and its curvature; the curvature cache built from the pulled
    back potential agrees with pulling back the target curvature because the
    exterior derivative commutes with pullback.
    """

    __slots__ = ("map", "target_connection", "induced")

    def __init__(self, m: SmoothMap, target_connection: ConnectionData):
        if target_connection.chart != m.target:
            raise ChartError("target connection must live on the map's target chart")
        object.__setattr__(self, "map", m)
        object.__setattr__(self, "target_connection", target_connection)
        induced = ConnectionData(pullback_form(m, target_connection.theta))
        object.__setattr__(self, "induced", induced)

    def __setattr__(self, name, value):
        raise AttributeError("PullbackSetup is immutable")


def pullback_quantise(A: Poly, s: PullbackSetup) -> FormalOperator:
    """Quantise the pullback of a target-chart observable with the induced data."""
    if A.chart != s.map.target:
        raise ChartError("observable must live on the target chart")
    return quantise(pullback_form(s.map, A), s.induced)


def theorem_commutator(A: Poly, B: Poly, s: PullbackSetup) -> FormalOperator:
    """Commutator of two pulled-back observables from the closed-form identity.

    Built from the source-chart brackets of the pulled back canonical
    coordinates (c_i) and of the pulled back observables (p).  For locally
    invertible setups it coincides with the structural commutator of
    ``pullback_quantise`` outputs; invertibility is the caller's concern.
    """
    src = s.map.source
    tgt = s.map.target
    if A.chart != tgt or B.chart != tgt:
        raise ChartError("observables must live on the target chart")
    mapping = s.map.mapping()
    A_t = A.substitute(src, mapping)
    B_t = B.substitute(src, mapping)
    p = poisson(A_t, B_t)
    c_sum = Poly.zero(src)
    for alpha, beta in tgt.pairs:
        c_sum = c_sum + poisson(mapping[alpha], mapping[beta])
    Xp = hamiltonian_vf(p)
    minus_ihbar = Poly.minus_i_hbar(src)
    inner = FormalOperator.from_vector_field(Xp).scale(minus_ihbar)
    zeroth = -contract(s.induced.theta, Xp) + p * (Poly.const(src, 2) - c_sum)
    inner = inner + FormalOperator.from_poly(zeroth)
    return inner.scale(minus_ihbar)


__all__ = [
    "ConnectionData",
    "FormalOperator",
    "PullbackSetup",
    "commutator",
    "commutator_rhs",
    "phase_conjugate",
    "pullback_quantise",
    "quantise",
    "theorem_commutator",
]

"""Pseudo-prequantum operators: construction, composition and commutators.

An observable A quantises to the first-order differential operator

    op(A) = -i*hbar*X_A + (A - Theta(X_A))

where Theta is the connection potential of the curvature two-form
Omega = d(Theta).  Commutators of such first-order operators are computed
structurally, by the first-order bracket

    [v.d + f, w.d + g] = (v.dw - w.dv).d + (v.dg - w.df)

and, independently, from the closed-form right-hand side

    -i*hbar * [ -i*hbar*X_{A,B} - Theta(X_{A,B}) - Omega(X_A, X_B) + 2{A,B} ]

which serves as an exact oracle for the structural route.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb
from typing import Iterable, Mapping

from .symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    SmoothMap,
    _Record,
    _hamiltonian_raw,
    _join_terms,
    _quantised_field,
    _sum,
    _sum_derivations,
    _sum_products,
    exterior_d,
    poisson,
    pullback_form,
    standard_potential,
    standard_symplectic,
)


class ConnectionData(_Record):
    """A connection potential together with its cached curvature.

    ``theta`` is the potential one-form and ``omega_curv = d(theta)`` the
    curvature.
    """

    __slots__ = ("chart", "theta", "omega_curv")

    def __init__(self, theta: OneForm):
        object.__setattr__(self, "chart", theta.chart)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega_curv", exterior_d(theta))

    @staticmethod
    def standard(chart: ChartSpec) -> "ConnectionData":
        return ConnectionData(standard_potential(chart))


class FormalOperator(_Record):
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
            if coeff.chart is not chart:
                raise ChartError("operator coefficient on the wrong chart")
            if not coeff.is_zero():
                clean[idx] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: Poly) -> "FormalOperator":
        """Multiplication operator."""
        return _op(p.chart, [((0,) * (2 * p.chart.n), p)])

    # -- structure ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FormalOperator)
            and self.chart is other.chart
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
        if other.chart is not self.chart:
            raise ChartError("chart mismatch")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            s = terms.get(idx)
            terms[idx] = c if s is None else s + c
        return _op(self.chart, terms.items())

    def __neg__(self):
        return _op(self.chart, [(idx, -c) for idx, c in self.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p: Poly | int) -> "FormalOperator":
        """Left multiplication by a function or constant."""
        return _op(self.chart, [(i, c * p) for i, c in self.terms.items()])

    # -- action and composition ---------------------------------------------

    def apply(self, p: Poly) -> Poly:
        """Apply to a polynomial section."""
        if p.chart is not self.chart:
            raise ChartError("chart mismatch")
        return _sum_products(self.chart, [(1, c, _derive(p, i)) for i, c in self.terms.items()])

    def compose(self, other: "FormalOperator") -> "FormalOperator":
        """Operator product self . other with Leibniz expansion."""
        triples = _add_leibniz(self, other)
        return _op(self.chart, [(i, _sum_products(self.chart, ts)) for i, ts in triples.items()])

    def __str__(self):
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
        return _join_terms(parts)

    __repr__ = __str__


def _derive(p: Poly, idx: tuple[int, ...]) -> Poly:
    """D^idx p for a derivative multi-index over the chart coordinates, as repeated first derivatives."""
    for i, k in enumerate(idx, 1):
        for _ in range(k):
            p = p._partial(i)
    return p


def _op(chart: ChartSpec, terms: Iterable[tuple[tuple[int, ...], Poly]]) -> FormalOperator:
    """A FormalOperator from valid ``(multi-index, Poly)`` items on ``chart``; zeros are dropped."""
    op = object.__new__(FormalOperator)
    object.__setattr__(op, "chart", chart)
    object.__setattr__(op, "terms", {idx: c for idx, c in terms if c.nums})
    return op


def _first_order(chart: ChartSpec, vec: list[Poly], mult: Poly) -> FormalOperator:
    """The operator sum_i vec[i] * d/dx_i + mult, with ``vec`` in coordinate order."""
    return _op(chart, zip(_first_order_slots(2 * chart.n), [*vec, mult]))


@cache
def _first_order_slots(m: int) -> dict[tuple[int, ...], int]:
    """Each first-order multi-index's slot: the m unit indices in coordinate order, then zero."""
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    return {idx: slot for slot, idx in enumerate([*units, (0,) * m])}


def _first_order_parts(op: FormalOperator, what: str) -> list[Poly]:
    """``vec + [mult]`` with ``op == _first_order(op.chart, vec, mult)``; ValueError above order 1."""
    slots = _first_order_slots(2 * op.chart.n)
    parts = [Poly.zero(op.chart)] * len(slots)
    for idx, c in op.terms.items():
        slot = slots.get(idx)
        if slot is None:
            raise ValueError(f"{what} implemented for order <= 1 operators")
        parts[slot] = c
    return parts


def _add_leibniz(left: FormalOperator, right: FormalOperator) -> dict:
    """Collect ``(C(a,k), c, D^k d)`` per multi-index of left . right.

    For c D^a in ``left`` and d D^b in ``right``,
    D^a (d D^b) = sum_{k <= a} C(a,k) (D^k d) D^{a-k+b}.
    """
    if right.chart is not left.chart:
        raise ChartError("chart mismatch")
    triples: dict = {}
    for a, c in left.terms.items():
        ks = tuple(product(*(range(ai + 1) for ai in a)))
        for b, d in right.terms.items():
            for k in ks:
                factor = 1
                for ai, ki in zip(a, k):
                    if ki:
                        factor *= comb(ai, ki)
                idx = tuple(ai - ki + bi for ai, ki, bi in zip(a, k, b))
                triples.setdefault(idx, []).append((factor, c, _derive(d, k)))
    return triples


# -- quantisation ------------------------------------------------------------


def quantise(A: Poly, c: ConnectionData) -> FormalOperator:
    """Pseudo-prequantum operator of an observable A for connection data c."""
    if A.chart is not c.chart:
        raise ChartError("observable and connection live on different charts")
    vec, theta_x = _quantised_field(A, c.theta, 1)
    return _first_order(A.chart, vec, A - theta_x)


def commutator(op_a: FormalOperator, op_b: FormalOperator) -> FormalOperator:
    """Structural commutator op_a . op_b - op_b . op_a of first-order operators.

    For P = v.d + f and Q = w.d + g it is the first-order bracket

        [P, Q] = (v.dw - w.dv).d + (v.dg - w.df),

    the Lie bracket of the vector parts plus the two derivatives of the
    multipliers, each coefficient one ``_sum_derivations`` (``compose`` and
    ``apply`` stay on ``Poly._partial`` as independent oracles).  An operand of
    order above 1 raises ValueError.
    """
    chart = op_a.chart
    if op_b.chart is not chart:
        raise ChartError("chart mismatch")
    v, w = _first_order_parts(op_a, "commutator"), _first_order_parts(op_b, "commutator")
    vi = [(i, c) for i, c in enumerate(v[:-1], 1) if c.nums]  # variable index i = coordinate + 1
    wi = [(i, c) for i, c in enumerate(w[:-1], 1) if c.nums]
    *vec, mult = (  # a quad only where the component it differentiates is nonzero too
        _sum_derivations(
            chart,
            [(1, c, i, q) for i, c in vi if q.nums] + [(-1, c, i, p) for i, c in wi if p.nums],
        )
        for p, q in zip(v, w)
    )
    return _first_order(chart, vec, mult)


def commutator_rhs(A: Poly, B: Poly, c: ConnectionData) -> FormalOperator:
    """Closed-form commutator of the quantised observables; exact oracle.

    X_A and X_B stay raw numerator maps (``_hamiltonian_raw``) and give both
    {A,B} = omega(X_A, X_B) and Omega(X_A, X_B); no VectorField is built.
    """
    chart = A.chart
    if B.chart is not chart or c.chart is not chart:
        raise ChartError("chart mismatch")
    XA, XB = _hamiltonian_raw(A), _hamiltonian_raw(B)
    P = standard_symplectic(chart)._pair_raw(XA, XB)
    return _closed_form(P, c.theta, [(2, P), (-1, c.omega_curv._pair_raw(XA, XB))])


def _closed_form(P: Poly, theta: OneForm, rest: list[tuple[int, Poly]]) -> FormalOperator:
    """-i*hbar * (-i*hbar*X_P - theta(X_P) + sum k*R over rest's (k, R)): both closed forms."""
    vec, theta_x = _quantised_field(P, theta, 2)
    mult = _sum(P.chart, [(k, R.nums, R.den) for k, R in [*rest, (-1, theta_x)]])
    return _first_order(P.chart, vec, mult.times_minus_i_hbar())


def phase_conjugate(op: FormalOperator, g: Poly) -> FormalOperator:
    """Conjugation exp(-i g / hbar) . op . exp(i g / hbar) for first-order ops.

    Requires every first-order coefficient to carry an explicit hbar factor,
    as every quantised observable (and commutator of two of them) does.
    """
    if g.chart is not op.chart:
        raise ChartError("chart mismatch")
    *vec, mult = _first_order_parts(op, "phase conjugation")
    # (c * d_i) picks up c * (i/hbar) * dg/dx_i on conjugation.
    shift = _sum_derivations(
        op.chart, [(1, c.div_minus_i_hbar(), i, g) for i, c in enumerate(vec, 1) if c.nums]
    )
    return _first_order(op.chart, vec, mult + shift)


# -- pullback quantisation ----------------------------------------------------


class PullbackSetup(_Record):
    """A polynomial map into a prequantised target plus the induced data.

    The induced connection over the source chart pulls back both the target
    potential and its curvature; the curvature cache built from the pulled
    back potential agrees with pulling back the target curvature because the
    exterior derivative commutes with pullback.
    """

    __slots__ = ("map", "target_connection", "induced")

    def __init__(self, m: SmoothMap, target_connection: ConnectionData):
        if target_connection.chart is not m.target:
            raise ChartError("target connection must live on the map's target chart")
        object.__setattr__(self, "map", m)
        object.__setattr__(self, "target_connection", target_connection)
        induced = ConnectionData(pullback_form(m, target_connection.theta))
        object.__setattr__(self, "induced", induced)


def pullback_quantise(A: Poly, s: PullbackSetup) -> FormalOperator:
    """Quantise the pullback of a target-chart observable with the induced data."""
    if A.chart is not s.map.target:
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
    if A.chart is not tgt or B.chart is not tgt:
        raise ChartError("observables must live on the target chart")
    mapping = s.map.mapping()
    A_t = A.substitute(src, mapping)
    B_t = B.substitute(src, mapping)
    p = poisson(A_t, B_t)
    c_sum = Poly.zero(src)
    for alpha, beta in tgt.pairs:
        c_sum = c_sum + poisson(mapping[alpha], mapping[beta])
    return _closed_form(p, s.induced.theta, [(1, p * (Poly.const(src, 2) - c_sum))])


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

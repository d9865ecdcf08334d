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

Every first-order operator on this path is built in one pass by one kernel,
``_quantised``, from the raw Hamiltonian field of one Poly P: ``quantise`` is
op(A) with P = A, and both closed forms (``commutator_rhs`` and
``theorem_commutator``) are -i*hbar * (-i*hbar*X_P + sum k_r*R_r - Theta(X_P))
with P the bracket.  A slot whose component is zero gets no Poly.
``commutator`` and ``phase_conjugate`` read each operand as its nonzero
components (``_components``), and ``commutator`` computes only the output
slots where either operand has one.  ``_quantised`` and ``commutator`` hand
their fresh dict of nonzero Polys to ``_make_op``, the operator counterpart
of ``symcore._make``, which keeps it as it is; every other constructor goes
through ``_op``, which drops zero coefficients into a new dict.
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
    _normal,
    _sum_derivations,
    _sum_products,
    _sum_raw_products,
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
    Poly coefficient.  ``compose`` multiplies two operators by Leibniz
    expansion.  No library path composes (``commutator`` is the first-order
    bracket); ``compose`` stays because ``bench/tracer.py`` hooks it by name.
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

    # -- composition -------------------------------------------------------

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
    return _make_op(chart, {idx: c for idx, c in terms if c.nums})


def _make_op(chart: ChartSpec, terms: dict[tuple[int, ...], Poly]) -> FormalOperator:
    """A FormalOperator that owns ``terms``, a fresh dict of valid nonzero Polys, as it is."""
    op = object.__new__(FormalOperator)
    object.__setattr__(op, "chart", chart)
    object.__setattr__(op, "terms", terms)
    return op


@cache
def _first_order_slots(m: int) -> tuple[tuple, dict[tuple[int, ...], int]]:
    """The first-order multi-indices by variable index (0: the multiplier, i: d/dx_i), and back."""
    indices = ((0,) * m, *[tuple(int(i == j) for i in range(m)) for j in range(m)])
    return indices, {idx: i for i, idx in enumerate(indices)}


def _components(op: FormalOperator, what: str) -> dict[int, Poly]:
    """``op``'s nonzero components by variable index; ValueError for an order above 1."""
    _, slots = _first_order_slots(2 * op.chart.n)
    try:
        return {slots[idx]: c for idx, c in op.terms.items()}
    except KeyError:
        raise ValueError(f"{what} implemented for order <= 1 operators") from None


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


_ONE = {0: (1, 0)}  # the numerator map of the constant 1


def _quantised(P: Poly, theta: OneForm, k: int, pieces: list[tuple[int, Poly]]) -> FormalOperator:
    """(-i*hbar)**(k - 1) * (-i*hbar*X_P + sum k_r*R_r - theta(X_P)), k = 1 or 2, in one pass.

    Over X_P's raw maps (``_hamiltonian_raw``), slot d/dx_j is (-i*hbar)**k * X_P[j],
    rotated and normalised only where X_P[j] is nonzero.  The multiplier over
    ``pieces`` ``(k_r, R_r)`` is one ``_sum_raw_products``, each R_r entering as
    its product with the constant 1.
    """
    chart = P.chart
    zero, *units = _first_order_slots(2 * chart.n)[0]
    h, terms, products = k << chart.shifts[0], {}, []  # h: k more hbar
    for idx, (m, d), t in zip(units, _hamiltonian_raw(P), theta.comps):
        if m:
            if k == 1:  # (a + i*b) * -i = b - i*a
                terms[idx] = _normal(chart, {e + h: (b, -a) for e, (a, b) in m.items()}, d)
            else:  # (a + i*b) * (-i)**2 = -a - i*b
                terms[idx] = _normal(chart, {e + h: (-a, -b) for e, (a, b) in m.items()}, d)
            if t.nums:
                products.append((-1, t.nums, m, t.den * d))
    products += [(k_r, R.nums, _ONE, R.den) for k_r, R in pieces if R.nums]
    mult = _sum_raw_products(chart, products)
    if mult.nums:
        terms[zero] = mult if k == 1 else mult.times_minus_i_hbar()
    return _make_op(chart, terms)


def quantise(A: Poly, c: ConnectionData) -> FormalOperator:
    """Pseudo-prequantum operator of an observable A for connection data c."""
    if A.chart is not c.chart:
        raise ChartError("observable and connection live on different charts")
    return _quantised(A, c.theta, 1, [(1, A)])


def commutator(op_a: FormalOperator, op_b: FormalOperator) -> FormalOperator:
    """Structural commutator op_a . op_b - op_b . op_a of first-order operators.

    For P = v.d + f and Q = w.d + g it is the first-order bracket

        [P, Q] = (v.dw - w.dv).d + (v.dg - w.df),

    the Lie bracket of the vector parts plus the two derivatives of the
    multipliers.  Each operand is read as its nonzero components, and only an
    output slot where either operand has a component is computed, as one
    ``_sum_derivations`` (``compose`` stays on ``Poly._partial`` as an
    independent oracle).  An operand of order above 1 raises ValueError.
    """
    chart = op_a.chart
    if op_b.chart is not chart:
        raise ChartError("chart mismatch")
    v, w = _components(op_a, "commutator"), _components(op_b, "commutator")
    vi = [(i, c) for i, c in v.items() if i]  # the d/dx_i components, by variable index i
    wi = [(i, c) for i, c in w.items() if i]
    (indices, _), terms = _first_order_slots(2 * chart.n), {}
    for j in v.keys() | w.keys():  # a quad only where the component it derives is nonzero
        p, q = v.get(j), w.get(j)
        quads = [(1, c, i, q) for i, c in vi] if q is not None else []
        if p is not None:
            quads += [(-1, c, i, p) for i, c in wi]
        if quads and (r := _sum_derivations(chart, quads)).nums:
            terms[indices[j]] = r
    return _make_op(chart, terms)


def commutator_rhs(A: Poly, B: Poly, c: ConnectionData) -> FormalOperator:
    """Closed-form commutator of the quantised observables; exact oracle.

    X_A and X_B are raw numerator maps (``_hamiltonian_raw``) and give both
    {A,B} = omega(X_A, X_B) and Omega(X_A, X_B).
    """
    chart = A.chart
    if B.chart is not chart or c.chart is not chart:
        raise ChartError("chart mismatch")
    XA, XB = _hamiltonian_raw(A), _hamiltonian_raw(B)
    P = standard_symplectic(chart)._pair_raw(XA, XB)
    return _quantised(P, c.theta, 2, [(2, P), (-1, c.omega_curv._pair_raw(XA, XB))])


def phase_conjugate(op: FormalOperator, g: Poly) -> FormalOperator:
    """Conjugation exp(-i g / hbar) . op . exp(i g / hbar) for first-order ops.

    Requires every first-order coefficient to carry an explicit hbar factor,
    as every quantised observable (and commutator of two of them) does.
    """
    if g.chart is not op.chart:
        raise ChartError("chart mismatch")
    parts = _components(op, "phase conjugation")
    # (c * d_i) picks up c * (i/hbar) * dg/dx_i on conjugation.
    shift = _sum_derivations(
        op.chart, [(1, c.div_minus_i_hbar(), i, g) for i, c in parts.items() if i]
    )
    return op + FormalOperator.from_poly(shift)


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
    return _quantised(p, s.induced.theta, 2, [(1, p * (Poly.const(src, 2) - c_sum))])


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

"""Vertical polarisations, flat-section actions and direct-quantisability.

In the adapted gauge (the potential annihilates the polarisation
directions) flat sections are plain functions F of the beta coordinates.
An observable A is directly quantisable iff, for every flat direction i,
the residual operator

    L_i = op({A, beta_i}) - multiplication by Omega(X_A, X_{beta_i})

annihilates every flat section; since the flat-section action of L_i is a
finite sum sum_k c_k * d^k/dbeta^k, that holds iff every coefficient c_k
vanishes identically as a polynomial.

``preserves`` builds each L_i in one pass with ``prequant._quantised``, the
kernel of ``quantise``, and keeps its flat-section coefficients.  X_{beta_i}
is a constant unit field, so each pairing with it, Omega(X_A, X_{beta_i})
and {A, beta_i} = omega(X_A, X_{beta_i}), is one column read of the
two-form (``TwoForm._pair_beta``).  ``cohomologous_residual_operator`` pairs
through the same column reads into the same kernel and checks its primitive
once for consecutive calls with the same (gamma, connection).
``residual_operator`` builds the whole L_i from ``hamiltonian_vf`` fields and
``TwoForm.pair``, and ``flat_action`` reads its flat terms: that operator
route is the oracle of both.
"""

from __future__ import annotations

from typing import Iterator

from .symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    _Record,
    _hamiltonian_raw,
    exterior_d,
    hamiltonian_vf,
    standard_potential,
    standard_symplectic,
)
from .prequant import ConnectionData, FormalOperator, _quantised, quantise


class Polarisation(_Record):
    """The vertical polarisation spanned by X_{beta_i} = -d/dalpha_i.

    Flat sections are functions of the beta coordinates.  Construction
    verifies the adapted-gauge condition Theta(X_{beta_i}) = 0 of the
    connection by exact contraction.
    """

    __slots__ = ("chart",)

    def __init__(self, chart: ChartSpec, connection: ConnectionData):
        if connection.chart is not chart:
            raise ChartError("connection lives on a different chart")
        if any(connection.theta.comps[: chart.n]):  # a d(alpha) component
            raise ChartError(
                "connection is not adapted: the potential must have no "
                "d(alpha) components so that flat sections are F(beta)"
            )
        object.__setattr__(self, "chart", chart)


class FlatSectionAction(_Record):
    """Action of an operator on flat sections F(beta).

    Stored as coefficient Polys of the pure beta-derivatives: the operator
    sends F to sum_k coeffs[k] * d^k F / dbeta^k with k a multi-index over
    the flat coordinates.
    """

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: ChartSpec, coeffs: dict[tuple[int, ...], Poly]):
        clean = {}
        for k, p in coeffs.items():
            k = tuple(k)
            if len(k) != chart.n:
                raise ChartError("flat multi-index must range over the beta coordinates")
            if not p.is_zero():
                clean[k] = p
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coeffs", clean)

    def __eq__(self, other):
        return (
            isinstance(other, FlatSectionAction)
            and self.chart is other.chart
            and self.coeffs == other.coeffs
        )

    def nonzero_coeffs(self) -> list[tuple[tuple[int, ...], Poly]]:
        return sorted(self.coeffs.items())


def flat_action(op: FormalOperator, P: Polarisation) -> FlatSectionAction:
    """Substitute the flat-section ansatz F(beta) into a formal operator.

    Any term with an alpha-derivative annihilates F, so only the pure
    beta-derivative terms survive, coefficients untouched.
    """
    if op.chart is not P.chart:
        raise ChartError("operator and polarisation live on different charts")
    n = op.chart.n
    pure_beta = {idx[n:]: c for idx, c in op.terms.items() if not any(idx[:n])}
    return FlatSectionAction(op.chart, pure_beta)


class PreservationReport(_Record):
    """Outcome of the direct-quantisability test for one observable.

    ``preserves`` is True when the observable preserves the flat sections;
    ``residuals`` holds the remaining ``(flat index, k, c_k)`` terms.
    """

    __slots__ = ("observable", "preserves", "residuals")

    def __init__(self, observable: Poly, preserves: bool, residuals: tuple):
        for name, value in zip(self.__slots__, (observable, preserves, residuals)):
            object.__setattr__(self, name, value)


def residual_operator(A: Poly, c: ConnectionData, i: int) -> FormalOperator:
    """L_i = op({A, beta_i}) - multiplication by Omega(X_A, X_{beta_i}); one X_A, X_{beta_i} for both.

    The whole operator, alpha-derivative terms included; with ``flat_action``
    it is the operator-level oracle of ``preserves``.
    """
    chart = c.chart
    XA, Xb = hamiltonian_vf(A), hamiltonian_vf(Poly.var(chart, chart.pairs[i][1]))
    rhs = c.omega_curv.pair(XA, Xb)
    return quantise(standard_symplectic(chart).pair(XA, Xb), c) - FormalOperator.from_poly(rhs)


# (gamma, c, d(gamma)) of the last primitive check that passed; one entry, so
# a grid's fresh connections and gamma never accumulate
_checked_primitive: tuple = (None, None, None)


def cohomologous_residual_operator(
    A: Poly, c: ConnectionData, P: Polarisation, gamma: OneForm, i: int
) -> FormalOperator:
    """Residual from the simplified condition when omega - Omega = d(gamma).

    Valid only when d(gamma) + ``omega_curv`` really equals the chart's
    ``standard_symplectic`` form; raises otherwise.  Equals
    ``residual_operator`` identically in that case.  One raw X_A gives
    g = {A, beta_i} and the multiplier d(gamma)(X_A, X_{beta_i}) - Theta(X_g),
    each pairing with X_{beta_i} one column read (``TwoForm._pair_beta``),
    built in one pass by ``prequant._quantised``.
    The primitive is checked once for consecutive calls with the same
    ``gamma`` and ``c``: the last checked d(gamma) is kept with both, so a
    grid checks it once.  ``P`` and ``A`` must live on the connection's chart.
    """
    global _checked_primitive
    chart, omega = c.chart, standard_symplectic(c.chart)
    if P.chart is not chart:
        raise ChartError("connection and polarisation live on different charts")
    if A.chart is not chart:
        raise ChartError("observable and connection live on different charts")
    last_gamma, last_c, dgamma = _checked_primitive
    if last_gamma is not gamma or last_c is not c:
        dgamma = exterior_d(gamma)
        if gamma.chart is not chart or dgamma + c.omega_curv != omega:
            raise ChartError("gamma is not a primitive of omega - Omega")
        _checked_primitive = gamma, c, dgamma  # strong references: neither id can be reused
    XA = _hamiltonian_raw(A)
    return _quantised(omega._pair_beta(XA, i), c.theta, 1, [(1, dgamma._pair_beta(XA, i))])


def preserves(A: Poly, c: ConnectionData) -> PreservationReport:
    """Decide direct quantisability of A; exact residual polynomials included.

    X_A once, and for each i, with g = {A, beta_i}, L_i in one pass
    (``prequant._quantised``): the multiplier g - Theta(X_g) -
    Omega(X_A, X_{beta_i}) and the derivative coefficients -i*hbar*X_g, of
    which the beta_j ones are kept, in flat multi-index order; g and
    Omega(X_A, X_{beta_i}) are column reads (``TwoForm._pair_beta``).
    ``flat_action`` of ``residual_operator`` is its operator-level oracle.  A
    connection outside the adapted gauge is a ChartError.
    """
    chart, n = c.chart, c.chart.n
    Polarisation(A.chart, c)  # the adapted-gauge check, and A on the connection's chart
    XA, omega = _hamiltonian_raw(A), standard_symplectic(chart)
    residuals: list[tuple[int, tuple[int, ...], Poly]] = []
    for i in range(n):
        g = omega._pair_beta(XA, i)
        L = _quantised(g, c.theta, 1, [(1, g), (-1, c.omega_curv._pair_beta(XA, i))])
        residuals += [(i, k[n:], p) for k, p in sorted(L.terms.items()) if not any(k[:n])]
    return PreservationReport(A, not residuals, tuple(residuals))


# -- monomial grids -----------------------------------------------------------

CASE_TAGS = ("standard", "polarised-scaled", "general-scaled")


def scaled_connection(chart: ChartSpec, deformation: Poly) -> ConnectionData:
    """Theta = (1 + f) * theta_standard."""
    one_plus_f = Poly.const(chart, 1) + deformation
    return ConnectionData(standard_potential(chart).scale(one_plus_f))


def classify_monomials(
    m_max: int,
    n_max: int,
    deformation: Poly | None = None,
    case: str = "standard",
    chart: ChartSpec | None = None,
) -> dict[tuple[int, int], PreservationReport]:
    """Preservation verdicts for the monomials alpha^m * beta^n, m<=m_max, n<=n_max.

    ``case`` selects the connection: 'standard' uses the undeformed
    potential and takes no deformation; the scaled cases use
    Theta = (1+f)*theta with f the given deformation, which must be a
    function of beta only for 'polarised-scaled'.
    """
    return dict(_monomial_cells(m_max, n_max, _grid_connection(deformation, case, chart)))


def _grid_connection(
    deformation: Poly | None, case: str, chart: ChartSpec | None
) -> ConnectionData:
    """The connection of a monomial grid's case, on the a1/b1 chart by default."""
    if case not in CASE_TAGS:
        raise ValueError(f"case must be one of {CASE_TAGS}")
    if chart is None:
        chart = ChartSpec((("a1", "b1"),))
    if case == "standard":
        if deformation is not None:
            raise ValueError("the standard case takes no deformation; choose a scaled case")
        return ConnectionData.standard(chart)
    if deformation is None or deformation.chart is not chart:
        raise ChartError("scaled cases need a deformation Poly on the chart")
    if case == "polarised-scaled":
        for a_name, _ in chart.pairs:
            if deformation.depends_on(a_name):
                raise ChartError("polarised deformation must depend on beta only")
    return scaled_connection(chart, deformation)


def _monomial_cells(
    m_max: int, n_max: int, conn: ConnectionData
) -> Iterator[tuple[tuple[int, int], PreservationReport]]:
    """The grid's cells ``((m, n), preserves(alpha^m * beta^n))``, each computed when drawn.

    Cells come in sorted order, over the chart's first pair (alpha, beta).
    """
    chart = conn.chart
    ia, ib = (chart.var_index(name) for name in chart.pairs[0])
    exp = [0] * len(chart.variables)
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            exp[ia], exp[ib] = m, n
            yield (m, n), preserves(Poly(chart, {tuple(exp): 1}), conn)


__all__ = [
    "FlatSectionAction",
    "Polarisation",
    "PreservationReport",
    "classify_monomials",
    "cohomologous_residual_operator",
    "flat_action",
    "preserves",
    "residual_operator",
    "scaled_connection",
]

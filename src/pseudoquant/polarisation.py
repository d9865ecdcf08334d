"""Vertical polarisations, flat-section actions and direct-quantisability.

In the adapted gauge (the potential annihilates the polarisation
directions) flat sections are plain functions F of the beta coordinates.
An observable A is directly quantisable iff, for every flat direction i,
the residual operator

    L_i = op({A, beta_i}) - multiplication by Omega(X_A, X_{beta_i})

annihilates every flat section; since the flat-section action of L_i is a
finite sum sum_k c_k * d^k/dbeta^k, that holds iff every coefficient c_k
vanishes identically as a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    contract,
    exterior_d,
    hamiltonian_vf,
    poisson,
    standard_potential,
)
from .prequant import ConnectionData, FormalOperator, quantise


class Polarisation:
    """The vertical polarisation spanned by X_{beta_i} = -d/dalpha_i.

    Flat sections are functions of the beta coordinates.  Construction
    verifies the adapted-gauge condition Theta(X_{beta_i}) = 0 by exact
    contraction when a connection is given.
    """

    __slots__ = ("chart",)

    def __init__(self, chart: ChartSpec, connection: ConnectionData | None = None):
        if connection is not None:
            if connection.chart != chart:
                raise ChartError("connection lives on a different chart")
            if not is_adapted(connection.theta):
                raise ChartError(
                    "connection is not adapted: the potential must have no "
                    "d(alpha) components so that flat sections are F(beta)"
                )
        object.__setattr__(self, "chart", chart)

    def __setattr__(self, name, value):
        raise AttributeError("Polarisation is immutable")


def is_adapted(theta: OneForm) -> bool:
    """True when theta annihilates every X_{beta_i} (no d(alpha) components)."""
    n = theta.chart.n
    return all(theta.comps[i].is_zero() for i in range(n))


class FlatSectionAction:
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

    def __setattr__(self, name, value):
        raise AttributeError("FlatSectionAction is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FlatSectionAction)
            and self.chart == other.chart
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def nonzero_coeffs(self) -> list[tuple[tuple[int, ...], Poly]]:
        return sorted(self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        betas = [p[1] for p in self.chart.pairs]
        parts = []
        for k, p in sorted(self.coeffs.items()):
            dd = "*".join(
                f"d^{kk}F/d{nm}^{kk}" if kk > 1 else f"dF/d{nm}"
                for nm, kk in zip(betas, k)
                if kk
            )
            parts.append(f"({p})*{dd}" if dd else f"({p})*F")
        return " + ".join(parts)

    __repr__ = __str__


def flat_action(op: FormalOperator, P: Polarisation) -> FlatSectionAction:
    """Substitute the flat-section ansatz F(beta) into a formal operator.

    Any term with an alpha-derivative annihilates F, so only the pure
    beta-derivative terms survive, coefficients untouched.
    """
    if op.chart != P.chart:
        raise ChartError("operator and polarisation live on different charts")
    n = op.chart.n
    coeffs: dict[tuple[int, ...], Poly] = {}
    for idx, c in op.terms.items():
        if any(idx[:n]):
            continue
        k = idx[n:]
        prev = coeffs.get(k)
        coeffs[k] = c if prev is None else prev + c
    return FlatSectionAction(op.chart, coeffs)


@dataclass(frozen=True)
class PreservationReport:
    """Outcome of the direct-quantisability test for one observable."""

    observable: Poly
    preserves: bool                    # True: preserves the flat sections
    residuals: tuple[tuple[int, tuple[int, ...], Poly], ...]  # (flat index, k, c_k)
    case: str = "standard"

    def __str__(self):
        tag = "preserves" if self.preserves else "fails"
        return f"{self.observable}: {tag} ({len(self.residuals)} residual terms)"


def residual_operator(A: Poly, c: ConnectionData, P: Polarisation, i: int) -> FormalOperator:
    """L_i = op({A, beta_i}) - multiplication by Omega(X_A, X_{beta_i})."""
    chart = c.chart
    beta_i = Poly.var(chart, chart.pairs[i][1])
    g = poisson(A, beta_i)
    rhs = c.omega_curv.pair(hamiltonian_vf(A), hamiltonian_vf(beta_i))
    return quantise(g, c) - FormalOperator.from_poly(rhs)


def cohomologous_residual_operator(
    A: Poly, c: ConnectionData, P: Polarisation, gamma: OneForm, i: int
) -> FormalOperator:
    """Residual from the simplified condition when omega - Omega = d(gamma).

    Valid only when d(gamma) really equals base_omega - omega_curv; raises
    otherwise.  Equals ``residual_operator`` identically in that case.
    """
    chart = c.chart
    dgamma = exterior_d(gamma)
    if dgamma != c.base_omega - c.omega_curv:
        raise ChartError("gamma is not a primitive of omega - Omega")
    beta_i = Poly.var(chart, chart.pairs[i][1])
    g = poisson(A, beta_i)
    Xg = hamiltonian_vf(g)
    nabla = FormalOperator.from_vector_field(Xg).scale(Poly.minus_i_hbar(chart))
    nabla = nabla + FormalOperator.from_poly(-contract(c.theta, Xg))
    dg_pair = dgamma.pair(hamiltonian_vf(A), hamiltonian_vf(beta_i))
    return nabla + FormalOperator.from_poly(dg_pair)


def preserves(A: Poly, c: ConnectionData, P: Polarisation | None = None) -> PreservationReport:
    """Decide direct quantisability of A; exact residual polynomials included."""
    if P is None:
        P = Polarisation(c.chart, c)
    residuals: list[tuple[int, tuple[int, ...], Poly]] = []
    for i in range(c.chart.n):
        L = residual_operator(A, c, P, i)
        fa = flat_action(L, P)
        for k, coeff in fa.nonzero_coeffs():
            residuals.append((i, k, coeff))
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
    potential; the scaled cases use Theta = (1+f)*theta with f the given
    deformation, which must be a function of beta only for
    'polarised-scaled'.
    """
    if case not in CASE_TAGS:
        raise ValueError(f"case must be one of {CASE_TAGS}")
    if chart is None:
        chart = ChartSpec((("a1", "b1"),))
    alpha, beta = chart.pairs[0]
    if case == "standard":
        conn = ConnectionData.standard(chart)
    else:
        if deformation is None or deformation.chart != chart:
            raise ChartError("scaled cases need a deformation Poly on the chart")
        if case == "polarised-scaled":
            for a_name, _ in chart.pairs:
                if deformation.depends_on(a_name):
                    raise ChartError("polarised deformation must depend on beta only")
        conn = scaled_connection(chart, deformation)
    P = Polarisation(chart, conn)
    table: dict[tuple[int, int], PreservationReport] = {}
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            A = Poly.var(chart, alpha) ** m * Poly.var(chart, beta) ** n
            rep = preserves(A, conn, P)
            table[(m, n)] = PreservationReport(rep.observable, rep.preserves, rep.residuals, case)
    return table


__all__ = [
    "FlatSectionAction",
    "Polarisation",
    "PreservationReport",
    "classify_monomials",
    "cohomologous_residual_operator",
    "flat_action",
    "is_adapted",
    "preserves",
    "residual_operator",
    "scaled_connection",
]

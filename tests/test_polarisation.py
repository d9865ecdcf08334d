from fractions import Fraction

import pytest

from pseudoquant.polarisation import (
    FlatSectionAction,
    Polarisation,
    classify_monomials,
    cohomologous_residual_operator,
    flat_action,
    preserves,
    residual_operator,
    scaled_connection,
)
from pseudoquant.prequant import ConnectionData, FormalOperator, quantise
from pseudoquant.symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    standard_potential,
)


@pytest.fixture
def conn(ab1):
    return ConnectionData.standard(ab1)


class TestFlatAction:
    def test_first_order(self, ab1, conn):
        op = quantise(Poly.var(ab1, "a1"), conn)  # -i*hbar d/db1
        fa = flat_action(op, Polarisation(ab1, conn))
        assert fa.nonzero_coeffs() == [((1,), Poly.minus_i_hbar(ab1))]

    def test_multiplication(self, ab1, conn):
        beta = Poly.var(ab1, "b1")
        fa = flat_action(FormalOperator.from_poly(beta), Polarisation(ab1, conn))
        assert fa.nonzero_coeffs() == [((0,), beta)]

    def test_quadratic_momentum_keeps_alpha_coefficient(self, ab1, conn):
        alpha = Poly.var(ab1, "a1")
        half_sq = alpha * alpha * Poly.const(ab1, Fraction(1, 2))
        fa = flat_action(quantise(half_sq, conn), Polarisation(ab1, conn))
        # zeroth-order coefficient retains explicit momentum dependence
        c0 = dict(fa.nonzero_coeffs())[(0,)]
        assert c0.depends_on("a1")

    def test_alpha_derivatives_dropped(self, ab1, conn):
        op = quantise(Poly.var(ab1, "b1"), conn)  # i*hbar d/da1 + b1
        fa = flat_action(op, Polarisation(ab1, conn))
        assert fa.nonzero_coeffs() == [((0,), Poly.var(ab1, "b1"))]

    def test_non_adapted_gauge_rejected(self, ab1):
        theta = OneForm.from_dict(ab1, {"da1": Poly.var(ab1, "b1")})
        with pytest.raises(ChartError):
            Polarisation(ab1, ConnectionData(theta))
        with pytest.raises(ChartError, match="not adapted"):  # preserves checks the gauge itself
            preserves(Poly.var(ab1, "b1"), ConnectionData(theta))


class TestPreserves:
    def test_positions_preserve(self, ab1, conn):
        for n in range(4):
            rep = preserves(Poly.var(ab1, "b1") ** n, conn)
            assert rep.preserves and rep.residuals == ()

    def test_linear_momentum_times_position_preserves(self, ab1, conn):
        alpha, beta = Poly.var(ab1, "a1"), Poly.var(ab1, "b1")
        for n in range(4):
            assert preserves(alpha * beta**n, conn).preserves

    def test_quadratic_momentum_fails(self, ab1, conn):
        alpha = Poly.var(ab1, "a1")
        rep = preserves(alpha * alpha, conn)
        assert not rep.preserves
        assert rep.residuals

    def test_scaled_connection_momentum_square_fails(self, ab1):
        alpha = Poly.var(ab1, "a1")
        c = scaled_connection(ab1, Poly.var(ab1, "b1"))
        assert not preserves(alpha * alpha, c).preserves

    def test_scaled_linear_momentum_residual_value(self, ab1):
        # for f = b1^2 the momentum residual is multiplication by -b1^2
        f = Poly.var(ab1, "b1") ** 2
        c = scaled_connection(ab1, f)
        P = Polarisation(ab1, c)
        L = residual_operator(Poly.var(ab1, "a1"), c, 0)
        fa = flat_action(L, P)
        assert fa.nonzero_coeffs() == [((0,), -f)]


class TestCohomologous:
    def test_matches_direct_residual(self, ab1):
        for f in (Poly.var(ab1, "b1"), Poly.var(ab1, "b1") ** 2):
            c = scaled_connection(ab1, f)
            gamma = standard_potential(ab1).scale(-f)
            P = Polarisation(ab1, c)
            for A in (
                Poly.var(ab1, "a1"),
                Poly.var(ab1, "a1") ** 2,
                Poly.var(ab1, "a1") * Poly.var(ab1, "b1"),
            ):
                direct = residual_operator(A, c, 0)
                simplified = cohomologous_residual_operator(A, c, P, gamma, 0)
                assert flat_action(direct, P) == flat_action(simplified, P)

    def test_wrong_primitive_rejected(self, ab1):
        c = scaled_connection(ab1, Poly.var(ab1, "b1"))
        bad_gamma = standard_potential(ab1)
        with pytest.raises(ChartError):
            cohomologous_residual_operator(
                Poly.var(ab1, "a1"), c, Polarisation(ab1, c), bad_gamma, 0
            )


class TestClassifyMonomials:
    def test_standard_grid(self):
        table = classify_monomials(3, 3, case="standard")
        for (m, n), rep in table.items():
            assert rep.preserves == (m <= 1), (m, n)

    def test_standard_matches_second_derivative_rule(self):
        table = classify_monomials(3, 3, case="standard")
        for rep in table.values():
            assert rep.preserves == rep.observable.partial("a1").partial("a1").is_zero()

    def test_polarised_scaled_m0_always_preserves(self, ab1):
        f = Poly.var(ab1, "b1") ** 2
        table = classify_monomials(3, 3, deformation=f, case="polarised-scaled", chart=ab1)
        for (m, n), rep in table.items():
            if m == 0:
                assert rep.preserves

    def test_polarised_scaled_m1_residual_is_deformation(self, ab1):
        # the linear-momentum monomials pick up exactly the -f multiplication
        # residual; this documents the computed obstruction
        f = Poly.var(ab1, "b1") ** 2
        table = classify_monomials(1, 0, deformation=f, case="polarised-scaled", chart=ab1)
        rep = table[(1, 0)]
        assert not rep.preserves
        assert rep.residuals == ((0, (0,), -f),)

    def test_general_scaled_constant_bracket_fails_for_nonzero_f(self, ab1):
        alpha, beta = Poly.var(ab1, "a1"), Poly.var(ab1, "b1")
        for f in (alpha, beta, alpha * beta, beta**2):
            rep = preserves(alpha, scaled_connection(ab1, f))
            assert not rep.preserves
        assert preserves(alpha, scaled_connection(ab1, Poly.zero(ab1))).preserves

    def test_polarised_case_rejects_momentum_dependence(self, ab1):
        with pytest.raises(ChartError):
            classify_monomials(
                1, 1, deformation=Poly.var(ab1, "a1"), case="polarised-scaled", chart=ab1
            )

    def test_standard_case_rejects_deformation(self, ab1):
        # the standard connection would silently ignore f
        for f in (Poly.var(ab1, "b1") ** 2, Poly.zero(ab1)):
            with pytest.raises(ValueError, match="standard case takes no deformation"):
                classify_monomials(1, 1, deformation=f, case="standard", chart=ab1)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            classify_monomials(1, 1, case="bogus")


class TestFlatSectionActionType:
    def test_zero_and_equality(self, ab1):
        z = FlatSectionAction(ab1, {})
        one = FlatSectionAction(ab1, {(0,): Poly.const(ab1, 1)})
        assert one != z

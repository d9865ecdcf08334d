import random
from fractions import Fraction

import pytest

from pseudoquant import polarisation
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
from pseudoquant.exprparse import parse_one_form, parse_poly
from pseudoquant.prequant import ConnectionData, FormalOperator, quantise
from pseudoquant.symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    Scalar,
    standard_potential,
)
from pseudoquant.verify import example_connections, random_poly


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


def _ab2():
    return ChartSpec((("a1", "b1"), ("a2", "b2")))


def _oracle_residuals(A, c):
    """The flat-section terms read from the full residual operators, one i at a time."""
    P = Polarisation(c.chart, c)
    return tuple(
        (i, k, p)
        for i in range(c.chart.n)
        for k, p in flat_action(residual_operator(A, c, i), P).nonzero_coeffs()
    )


class TestPreservesMatchesOperatorRoute:
    """``preserves`` builds only the flat terms; the full operators are its oracle."""

    @pytest.mark.parametrize("case, deformation", [
        ("standard", None),
        ("polarised-scaled", "2/3*b1^3 - b1"),
        ("general-scaled", "a1*b1 - 3/2*b1^2 + a1"),
    ])
    def test_every_grid_cell(self, ab1, case, deformation):
        f = None if deformation is None else parse_poly(deformation, ab1)
        c = ConnectionData.standard(ab1) if f is None else scaled_connection(ab1, f)
        table = classify_monomials(6, 6, f, case, ab1)
        assert len(table) == 49
        for (m, n), rep in table.items():
            assert rep.observable == Poly.var(ab1, "a1") ** m * Poly.var(ab1, "b1") ** n
            assert rep.residuals == _oracle_residuals(rep.observable, c), (m, n)
            assert rep.preserves == (not rep.residuals)

    @pytest.mark.parametrize("theta", [
        "scaled",  # (1 + f) * theta_standard with f depending on both betas
        [["a1 + a1*b1*b2 - 1/3*a1*b2^2", "db1"], ["a2 + 2*a2*b1^2*b2 + i*a2", "db2"]],
    ])
    def test_two_degrees_of_freedom(self, theta):
        ab2 = _ab2()
        if theta == "scaled":
            c = scaled_connection(ab2, parse_poly("b1*b2 - 2*b2^2 + 1/2*b1", ab2))
        else:
            c = ConnectionData(parse_one_form(theta, ab2))
        seen_both_indices = False
        for text in ("a1^2*b2", "a1*a2*b1 + a2^2", "a1*b1*b2^2 - 1/2*a2*b2", "a2",
                     "b1*b2", "a1^3*a2*b1", "a1*a2 + i*a2^2*b1"):
            A = parse_poly(text, ab2)
            rep = preserves(A, c)
            assert rep.residuals == _oracle_residuals(A, c), text
            seen_both_indices |= {i for i, _, _ in rep.residuals} == {0, 1}
        assert seen_both_indices


@pytest.mark.parametrize("name", sorted(example_connections()))
def test_preserves_residuals_are_linear_in_the_observable(name):
    """residual(A + c*B) = residual(A) + c*residual(B) at every (i, k), a missing entry being 0.

    Every step of ``preserves`` is linear in A over the Gaussian rationals:
    A -> X_A takes partial derivatives; g = {A, beta_i} = omega(X_A, X_{beta_i})
    and Omega(X_A, X_{beta_i}) pair X_A with a field that does not depend on
    A; X_g, Theta(X_g) and -i*hbar*X_g[beta_j] are linear in g.  So the
    multiplier g - Theta(X_g) - Omega(X_A, X_{beta_i}) and each
    beta_j-derivative coefficient are linear in A, and so is the map from A to
    the residual polynomials, indexed by (i, k).
    """
    c = example_connections()[name]
    chart, rng = c.chart, random.Random(f"linearity/{name}")
    zero, nonzero = Poly.zero(chart), 0
    for _ in range(8):
        A, B = random_poly(chart, rng, max_degree=4), random_poly(chart, rng, max_degree=4)
        B = B + Poly.hbar(chart) * random_poly(chart, rng, max_degree=2, terms=2)
        k = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(1, 3), 2))
        res = [
            {(i, idx): p for i, idx, p in preserves(X, c).residuals}
            for X in (A, B, A + B.scale(k))
        ]
        for key in res[0].keys() | res[1].keys() | res[2].keys():
            want = res[0].get(key, zero) + res[1].get(key, zero).scale(k)
            assert res[2].get(key, zero) == want, (name, key, A, B, k)
        nonzero += bool(res[0]) + bool(res[1])
    assert nonzero >= 8  # the residuals compared are mostly not all zero


def _gaussian_rank(vectors: list[dict]) -> int:
    """Rank over the Gaussian rationals of sparse vectors ``{key: (re, im)}`` of Fractions.

    Plain Gaussian elimination: each nonzero vector in turn becomes a pivot on
    one of its keys and is subtracted, scaled, from every later vector that
    holds that key.
    """
    rows, rank = [dict(v) for v in vectors], 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        key, (pr, pi) = next(iter(pivot.items()))
        norm = pr * pr + pi * pi
        for row in rows:
            if key in row:
                r, i = row[key]  # factor f = row[key] / pivot[key]
                fr, fi = (r * pr + i * pi) / norm, (i * pr - r * pi) / norm
                for k, (a, b) in pivot.items():
                    old = row.get(k, (0, 0))
                    new = (old[0] - (fr * a - fi * b), old[1] - (fr * b + fi * a))
                    if new[0] or new[1]:
                        row[k] = new
                    else:
                        row.pop(k, None)
    return rank


@pytest.mark.parametrize(
    "case, deformation, preserving",
    [
        ("standard", None, lambda m: m <= 1),
        ("polarised-scaled", "b1^2", lambda m: m == 0),
        ("general-scaled", "a1*b1", lambda m: m == 0),
    ],
)
def test_preserving_observables_are_the_span_of_preserving_monomials(case, deformation, preserving):
    """On 1 dof with m, n <= 4, the residuals of the other monomials have full rank.

    The residual of ``preserves`` is linear in A (see
    ``test_preserves_residuals_are_linear_in_the_observable``).  For
    A = sum c_mn * alpha^m * beta^n it is therefore sum c_mn * r_mn, where r_mn
    is the residual of the monomial, flattened to one vector indexed by
    (flat index i, derivative k, exponent).  The preserving monomials have
    r_mn = 0.  When the r_mn of all the others are linearly independent over
    the Gaussian rationals, sum c_mn * r_mn = 0 forces c_mn = 0 for each of
    them.  So an observable of this degree preserves the flat sections iff it
    is a combination of the preserving monomials: no mixed observable
    preserves where its monomials do not.
    """
    ab1 = ChartSpec((("a1", "b1"),))
    f = None if deformation is None else parse_poly(deformation, ab1)
    table = classify_monomials(4, 4, deformation=f, case=case, chart=ab1)
    assert {mn for mn, rep in table.items() if rep.preserves} == {
        (m, n) for m, n in table if preserving(m)
    }
    vectors = [
        {(i, k, exp): (c.re, c.im) for i, k, p in rep.residuals for exp, c in p.terms.items()}
        for rep in table.values()
        if not rep.preserves
    ]
    assert _gaussian_rank(vectors) == len(vectors)
    # the elimination sees dependence: (2 + i) times a vector already there adds no rank
    scaled = {k: (2 * a - b, a + 2 * b) for k, (a, b) in vectors[0].items()}
    assert _gaussian_rank(vectors + [scaled]) == len(vectors)


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

    NOT_PRIMITIVE = "gamma is not a primitive of omega - Omega"

    def test_wrong_primitive_rejected(self, ab1):
        c = scaled_connection(ab1, Poly.var(ab1, "b1"))
        bad_gamma = standard_potential(ab1)
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):
            cohomologous_residual_operator(
                Poly.var(ab1, "a1"), c, Polarisation(ab1, c), bad_gamma, 0
            )

    def _two_dof(self):
        ab2 = _ab2()
        f = parse_poly("b1*b2 - 2*b2^2", ab2)
        c = scaled_connection(ab2, f)
        return ab2, c, standard_potential(ab2).scale(-f)

    def _check(self, c, gamma):
        A = parse_poly("a1^2*a2 + a2*b1", c.chart)
        return cohomologous_residual_operator(A, c, Polarisation(c.chart, c), gamma, 1)

    def test_right_primitive_accepted_on_two_dof(self):
        ab2, c, gamma = self._two_dof()
        A = parse_poly("a1^2*a2 + a2*b1", ab2)
        P = Polarisation(ab2, c)
        for i in range(2):
            simplified = cohomologous_residual_operator(A, c, P, gamma, i)
            assert flat_action(simplified, P) == flat_action(residual_operator(A, c, i), P)

    def test_extra_component_rejected(self):
        # d(a1 * d(a2)) = d(a1)^d(a2): a pair that neither omega nor Omega has
        ab2, c, gamma = self._two_dof()
        extra = OneForm.from_dict(ab2, {"da2": Poly.var(ab2, "a1")})
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):
            self._check(c, gamma + extra)

    def test_wrong_on_one_pair_rejected(self):
        # d(a2 * d(b2)) adds 1 on (a2, b2) only; the (a1, b1) pair stays right
        ab2, c, gamma = self._two_dof()
        off = OneForm.from_dict(ab2, {"db2": Poly.var(ab2, "a2")})
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):
            self._check(c, gamma + off)

    def test_primitive_on_another_chart_rejected(self):
        # the right gamma, with the coordinates renamed
        _, c, _ = self._two_dof()
        other = ChartSpec((("x1", "y1"), ("x2", "y2")))
        renamed = standard_potential(other).scale(-parse_poly("y1*y2 - 2*y2^2", other))
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):
            self._check(c, renamed)

    # The primitive check is kept for the last (gamma, c) that passed it.

    def test_wrong_primitive_right_after_a_right_one_rejected(self):
        ab2, c, gamma = self._two_dof()
        self._check(c, gamma)
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):
            self._check(c, standard_potential(ab2))

    def test_primitive_of_one_connection_rechecked_on_another(self):
        ab2, c1, gamma = self._two_dof()
        self._check(c1, gamma)
        c2 = scaled_connection(ab2, parse_poly("b1^2", ab2))
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):
            self._check(c2, gamma)

    def test_valid_call_after_a_failed_check(self):
        ab2, c, gamma = self._two_dof()
        bad = standard_potential(ab2)
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):
            self._check(c, bad)
        with pytest.raises(ChartError, match=self.NOT_PRIMITIVE):  # the failure was not kept
            self._check(c, bad)
        A = parse_poly("a1^2*a2 + a2*b1", ab2)
        P = Polarisation(ab2, c)
        assert flat_action(self._check(c, gamma), P) == flat_action(residual_operator(A, c, 1), P)

    def test_consecutive_calls_check_the_primitive_once(self, monkeypatch):
        calls = []
        d = polarisation.exterior_d
        monkeypatch.setattr(polarisation, "exterior_d", lambda g: calls.append(g) or d(g))
        _, c, gamma = self._two_dof()
        first = self._check(c, gamma)
        assert self._check(c, gamma) == self._check(c, gamma) == first
        assert calls == [gamma]

    def test_polarisation_on_another_chart_rejected(self, ab1):
        # the right connection and primitive, with a polarisation of the 2-dof chart
        c = scaled_connection(ab1, Poly.var(ab1, "b1"))
        gamma = standard_potential(ab1).scale(-Poly.var(ab1, "b1"))
        ab2 = _ab2()
        P = Polarisation(ab2, ConnectionData.standard(ab2))
        with pytest.raises(ChartError, match="connection and polarisation live on different charts"):
            cohomologous_residual_operator(Poly.var(ab1, "a1"), c, P, gamma, 0)


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

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from pseudoquant.prequant import (
    ConnectionData,
    FormalOperator,
    PullbackSetup,
    commutator,
    commutator_rhs,
    phase_conjugate,
    pullback_quantise,
    quantise,
    theorem_commutator,
)
from pseudoquant.symcore import (
    ChartError,
    ChartSpec,
    Poly,
    Scalar,
    SmoothMap,
    VectorField,
    contract,
    exterior_d,
    hamiltonian_vf,
    poisson,
    pullback_form,
    standard_chart,
    standard_potential,
)
from pseudoquant.verify import cylinder_setup, example_connections, folded_connection

from conftest import random_poly


def mult(p):
    return FormalOperator.from_poly(p)


class TestQuantise:
    def test_standard_momentum(self, pq1):
        conn = ConnectionData.standard(pq1)
        op = quantise(Poly.var(pq1, "p1"), conn)
        want = FormalOperator(pq1, {(0, 1): Poly.minus_i_hbar(pq1)})
        assert op == want

    def test_standard_position(self, pq1):
        conn = ConnectionData.standard(pq1)
        op = quantise(Poly.var(pq1, "q1"), conn)
        want = FormalOperator(pq1, {(1, 0): -Poly.minus_i_hbar(pq1), (0, 0): Poly.var(pq1, "q1")})
        assert op == want

    def test_folded_position(self):
        chart = standard_chart(2)
        conn = folded_connection(chart)
        op = quantise(Poly.var(chart, "q1"), conn)
        want = FormalOperator(
            chart, {(1, 0, 0, 0): -Poly.minus_i_hbar(chart), (0, 0, 0, 0): Poly.var(chart, "q1")}
        )
        assert op == want

    def test_apply_leibniz(self, pq1, rng):
        conn = ConnectionData.standard(pq1)
        p = Poly.var(pq1, "p1")
        op = quantise(p * p, conn)
        f = random_poly(pq1, rng)
        g = random_poly(pq1, rng)
        # multiplication part is linear; derivative terms obey Leibniz via apply
        assert op.apply(f + g) == op.apply(f) + op.apply(g)


class TestCommutator:
    def test_canonical(self, pq1):
        conn = ConnectionData.standard(pq1)
        got = commutator(
            quantise(Poly.var(pq1, "p1"), conn), quantise(Poly.var(pq1, "q1"), conn)
        )
        assert got == mult(Poly.minus_i_hbar(pq1))

    def test_self_commutator_zero(self, pq2, rng):
        conn = ConnectionData.standard(pq2)
        op = quantise(random_poly(pq2, rng), conn)
        assert commutator(op, op).is_zero()

    def test_folded(self):
        chart = standard_chart(2)
        conn = folded_connection(chart)
        p1, q1 = Poly.var(chart, "p1"), Poly.var(chart, "q1")
        got = commutator(quantise(p1, conn), quantise(q1, conn))
        want = mult(Poly.minus_i_hbar(chart) * (Poly.const(chart, 2) - p1))
        assert got == want
        # the untouched pair stays canonical
        got22 = commutator(
            quantise(Poly.var(chart, "p2"), conn), quantise(Poly.var(chart, "q2"), conn)
        )
        assert got22 == mult(Poly.minus_i_hbar(chart))

    def test_rhs_oracle_random(self, rng):
        charts = [standard_chart(1), standard_chart(2)]
        conns = [ConnectionData.standard(charts[0]), folded_connection(charts[1])]
        for chart, conn in zip(charts, conns):
            for _ in range(40):
                a = random_poly(chart, rng)
                b = random_poly(chart, rng)
                assert commutator(quantise(a, conn), quantise(b, conn)) == commutator_rhs(
                    a, b, conn
                )

    def test_rhs_equal_arguments(self, pq1, rng):
        conn = ConnectionData.standard(pq1)
        a = random_poly(pq1, rng)
        assert commutator_rhs(a, a, conn).is_zero()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tall_coefficients(self, seed):
        # Degree-8, 10-term observables with denominators up to 99 on the folded
        # 3-dof chart: common denominators and numerators grow far past 6.
        conn = folded_connection(standard_chart(3))
        chart, rng = conn.chart, random.Random(seed)

        def observable():
            terms = {}
            while len(terms) < 10:
                exp = [0] * len(chart.variables)
                for _ in range(rng.randint(4, 8)):
                    exp[rng.randrange(1, len(exp))] += 1
                re = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                terms[tuple(exp)] = Scalar(re, Fraction(rng.randint(1, 99), rng.randint(1, 99)))
            return Poly(chart, terms)

        a, b = observable(), observable()
        op_a, op_b = quantise(a, conn), quantise(b, conn)
        got = commutator(op_a, op_b)
        assert max(c.den for c in got.terms.values()) > 10**6
        assert got == commutator_rhs(a, b, conn)
        assert got == op_a.compose(op_b) - op_b.compose(op_a)


def coordinate_monomials(chart, degree):
    """Every monomial in the chart coordinates (not hbar) of total degree <= degree, 1 included."""
    one = Poly.const(chart, 1)
    return [
        math.prod((Poly.var(chart, x) for x in xs), start=one)
        for k in range(degree + 1)
        for xs in combinations_with_replacement(chart.coords, k)
    ]


@pytest.mark.parametrize("name, degree", [
    ("standard-2dof", 4), ("position-coupled", 4), ("beta-scaled", 4), ("folded-3dof", 3),
])
def test_commutator_identity_on_every_monomial_pair(name, degree):
    """The closed form equals the structural commutator for all observables up to ``degree``.

    Both sides are bilinear over the Gaussian rationals and over hbar, which is
    not a chart direction: ``quantise`` is linear, ``commutator`` is bilinear by
    construction and ``commutator_rhs`` is bilinear (the hypothesis properties
    ``test_quantise_is_linear`` and ``test_commutator_rhs_is_antisymmetric_and_bilinear``).
    Both are antisymmetric, so they vanish on equal arguments.  Agreement on
    every unordered pair of distinct coordinate monomials of degree <= ``degree``
    therefore proves the identity for every pair of observables of coordinate
    degree <= ``degree``, whatever their powers of hbar.
    """
    conn = example_connections()[name]
    monomials = coordinate_monomials(conn.chart, degree)
    quantised = [quantise(m, conn) for m in monomials]
    for (a, qa), (b, qb) in combinations(zip(monomials, quantised), 2):
        assert commutator(qa, qb) == commutator_rhs(a, b, conn), (str(a), str(b))


def nonlinear_setup():
    """z = 2/3*l - 3/2*l^2 + 5/4*phi_l^2, phi_z = phi_l + 1/3*l*phi_l: a degree-2 map into the
    standard target, shaped like the benchmark's pullback operations."""
    src, tgt = ChartSpec((("l", "phi_l"),)), ChartSpec((("z", "phi_z"),))
    l, phi = Poly.var(src, "l"), Poly.var(src, "phi_l")
    z = l.scale(Fraction(2, 3)) + (l * l).scale(Fraction(-3, 2)) + (phi * phi).scale(Fraction(5, 4))
    return PullbackSetup(SmoothMap(src, tgt, [z, phi + (l * phi).scale(Fraction(1, 3))]),
                         ConnectionData.standard(tgt))


PULLBACK_SETUPS = {
    "cylinder-1/2": lambda: cylinder_setup(Fraction(1, 2)),
    "cylinder-3": lambda: cylinder_setup(Fraction(3)),
    "nonlinear": nonlinear_setup,
}


@pytest.mark.parametrize("name", sorted(PULLBACK_SETUPS))
def test_pullback_theorem_on_every_monomial_pair(name):
    """``theorem_commutator`` equals the structural commutator of pulled-back quantisations
    for all target observables of degree <= 4.

    Both sides are bilinear over the Gaussian rationals and over hbar.  Pulling back is
    ``substitute``, a ring homomorphism that sends hbar to hbar, so it is linear;
    ``quantise`` is linear (``test_quantise_is_linear``) and ``commutator`` bilinear, so the
    structural side is bilinear.  ``theorem_commutator`` pulls both observables back, takes
    their Poisson bracket p (bilinear) and returns ``_closed_form(p, theta, p*(2 - c))`` with
    c independent of the observables, which is linear in p.  Both sides are antisymmetric,
    so they vanish on equal arguments, and agreement on every unordered pair of distinct
    target coordinate monomials of degree <= 4 proves the identity for every pair of
    target observables of coordinate degree <= 4, whatever their powers of hbar.
    """
    s = PULLBACK_SETUPS[name]()
    monomials = coordinate_monomials(s.map.target, 4)
    quantised = [pullback_quantise(m, s) for m in monomials]
    for (a, qa), (b, qb) in combinations(zip(monomials, quantised), 2):
        assert commutator(qa, qb) == theorem_commutator(a, b, s), (str(a), str(b))


def test_exact_commutator_path_builds_no_derivative_or_negated_poly(monkeypatch):
    """quantise, commutator and commutator_rhs take first derivatives inside their kernels.

    The operator oracles (``compose``, ``apply``) still derive through ``Poly._partial``,
    which shows that the counting hooks are live.
    """
    conn = example_connections()["folded-3dof"]
    a, b = (random_poly(conn.chart, random.Random(seed), 4, 4) for seed in (5, 6))
    calls = {"_partial": 0, "__neg__": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(Poly, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Poly, name, counted)
    op_a, op_b = quantise(a, conn), quantise(b, conn)
    got = commutator(op_a, op_b)
    assert got == commutator_rhs(a, b, conn) and not got.is_zero()
    assert calls == {"_partial": 0, "__neg__": 0}
    assert got == op_a.compose(op_b) - op_b.compose(op_a)
    assert calls["_partial"] > 0


def test_quantise_and_commutator_rhs_build_no_vector_field(monkeypatch):
    """Hamiltonian fields stay raw numerator maps on the exact commutator path.

    ``quantise`` and ``commutator_rhs`` read X_A, X_B and X_{A,B} as raw maps;
    ``hamiltonian_vf``, the public wrapper, still builds a ``VectorField``,
    which shows that the counting hook is live.
    """
    conn = example_connections()["folded-3dof"]
    a, b = (random_poly(conn.chart, random.Random(seed), 4, 4) for seed in (5, 6))
    built = []

    def counted(self, *args, _original=VectorField.__init__):
        built.append(type(self))
        _original(self, *args)

    monkeypatch.setattr(VectorField, "__init__", counted)
    op_a, op_b = quantise(a, conn), quantise(b, conn)
    got = commutator_rhs(a, b, conn)
    assert built == []
    assert commutator(op_a, op_b) == got and not got.is_zero()
    hamiltonian_vf(a)
    assert built == [VectorField]


class TestOperatorValidation:
    def test_public_constructor_and_scale(self, pq1, pq2):
        with pytest.raises(ChartError, match="bad derivative multi-index"):
            FormalOperator(pq1, {(1, 0, 0): Poly.var(pq1, "p1")})
        with pytest.raises(ChartError, match="bad derivative multi-index"):
            FormalOperator(pq1, {(1, -1): Poly.var(pq1, "p1")})
        with pytest.raises(ChartError, match="operator coefficient on the wrong chart"):
            FormalOperator(pq1, {(1, 0): Poly.var(pq2, "p1")})
        op = quantise(Poly.var(pq1, "p1") ** 2, ConnectionData.standard(pq1))
        with pytest.raises(ChartError):
            op.scale(Poly.var(pq2, "q1"))
        with pytest.raises(ChartError):
            op.scale(Poly.minus_i_hbar(pq2))

    @pytest.mark.parametrize("c", [3, 0, Fraction(-1, 2), Scalar(Fraction(1, 3), 2)])
    def test_scale_by_constant_is_coefficientwise_poly_scale(self, pq1, c):
        op = quantise(Poly.var(pq1, "p1") ** 2 + Poly.var(pq1, "q1"), ConnectionData.standard(pq1))
        want = FormalOperator(pq1, {idx: coeff.scale(c) for idx, coeff in op.terms.items()})
        assert op.scale(c) == want


class TestGaugeShift:
    def test_phase_conjugation_identity(self, pq2, rng):
        theta = standard_potential(pq2)
        for _ in range(10):
            g = random_poly(pq2, rng)
            a = random_poly(pq2, rng)
            shifted = ConnectionData(theta + exterior_d(g))
            assert shifted.omega_curv == ConnectionData(theta).omega_curv
            assert phase_conjugate(quantise(a, shifted), g) == quantise(
                a, ConnectionData(theta)
            )

    def test_phase_conjugation_validation(self, pq1, pq2):
        op = quantise(Poly.var(pq1, "p1"), ConnectionData.standard(pq1))
        with pytest.raises(ChartError, match="chart mismatch"):
            phase_conjugate(op, Poly.var(pq2, "q1"))
        for g in (Poly.var(pq1, "q1"), Poly.zero(pq1)):  # also with nothing to conjugate by
            with pytest.raises(
                ValueError, match=r"^phase conjugation implemented for order <= 1 operators$"
            ):
                phase_conjugate(op.compose(op), g)
        with pytest.raises(ValueError, match="not divisible by hbar"):
            phase_conjugate(FormalOperator(pq1, {(1, 0): Poly.var(pq1, "q1")}), Poly.var(pq1, "p1"))

    def test_commutator_invariant_for_constant_bracket(self, pq1, rng):
        theta = standard_potential(pq1)
        p, q = Poly.var(pq1, "p1"), Poly.var(pq1, "q1")
        for _ in range(5):
            g = random_poly(pq1, rng)
            shifted = ConnectionData(theta + exterior_d(g))
            base = ConnectionData(theta)
            # {p, q} is constant, so the commutator itself is gauge invariant
            assert commutator(quantise(p, shifted), quantise(q, shifted)) == commutator(
                quantise(p, base), quantise(q, base)
            )


class TestPullbackQuantisation:
    def test_identity_map_is_plain_quantise(self, pq1, rng):
        ident = SmoothMap(pq1, pq1, [Poly.var(pq1, x) for x in pq1.coords])
        s = PullbackSetup(ident, ConnectionData.standard(pq1))
        a = random_poly(pq1, rng)
        assert pullback_quantise(a, s) == quantise(a, ConnectionData.standard(pq1))

    def test_induced_curvature_is_pulled_back_curvature(self):
        s = cylinder_setup(Fraction(2, 3))
        target_curv = s.target_connection.omega_curv
        assert s.induced.omega_curv == pullback_form(s.map, target_curv)

    @pytest.mark.parametrize(
        "lam,coeff",
        [
            (Fraction(1, 4), Fraction(-8)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1), Fraction(1)),
            (Fraction(2), Fraction(3, 4)),
        ],
    )
    def test_cylinder_family(self, lam, coeff):
        s = cylinder_setup(lam)
        tgt = s.map.target
        z, phi = Poly.var(tgt, "z"), Poly.var(tgt, "phi_z")
        want = mult(Poly.minus_i_hbar(s.map.source).scale(coeff))
        assert theorem_commutator(z, phi, s) == want
        structural = commutator(pullback_quantise(z, s), pullback_quantise(phi, s))
        assert structural == want

    def test_cylinder_sign_reversal_float_shadow(self):
        s = cylinder_setup(Fraction(math.sqrt(2) - 1))
        tgt = s.map.target
        got = theorem_commutator(Poly.var(tgt, "z"), Poly.var(tgt, "phi_z"), s)
        poly = got.is_multiplication_by()
        val = poly.evaluate({"l": 0.3, "phi_l": -1.2}, hbar=1.0)
        assert abs(val - 1j) < 1e-12

    def test_contraction_decomposition(self, pq1, pq2, rng):
        # theta(X_{pulled A}) splits over the pulled-back canonical coordinates
        for _ in range(10):
            m = SmoothMap(pq2, pq1, [random_poly(pq2, rng, 2, 2) for _ in range(2)])
            s = PullbackSetup(m, ConnectionData.standard(pq1))
            a = random_poly(pq1, rng, 2, 3)
            a_t = pullback_form(m, a)
            lhs = contract(s.induced.theta, hamiltonian_vf(a_t))
            mapping = m.mapping()
            rhs = Poly.zero(pq2)
            for coeff, coord in zip(s.target_connection.theta.comps, pq1.coords):
                pulled_coeff = coeff.substitute(pq2, mapping)
                rhs = rhs + pulled_coeff * poisson(a_t, mapping[coord])
            assert lhs == rhs

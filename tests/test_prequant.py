import math
import random
from fractions import Fraction

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
    Poly,
    SmoothMap,
    contract,
    exterior_d,
    hamiltonian_vf,
    poisson,
    pullback_form,
    standard_chart,
    standard_potential,
)
from pseudoquant.verify import cylinder_setup, folded_connection

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


class TestGaugeShift:
    def test_phase_conjugation_identity(self, pq2, rng):
        theta = standard_potential(pq2)
        for _ in range(10):
            g = random_poly(pq2, rng)
            a = random_poly(pq2, rng)
            shifted = ConnectionData(theta + exterior_d(g))
            assert shifted.is_flat_shift_of(ConnectionData(theta))
            assert phase_conjugate(quantise(a, shifted), g) == quantise(
                a, ConnectionData(theta)
            )

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
        s = PullbackSetup(SmoothMap.identity(pq1), ConnectionData.standard(pq1))
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

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoquant.bks import (
    DIVERGES,
    FINITE_CANDIDATE,
    VANISHES,
    DeformationSpec,
    SingularSampleError,
    alt_exponent,
    classify_pairing,
    classify_term,
    critical_j,
    exponent,
    oscillatory_moment,
    oscillatory_moment_quadrature,
    position_pairing,
    position_series_orders,
    schrodinger_prefactor,
    standard_schrodinger_check,
    surviving_position_terms,
)


class TestExponents:
    def test_frozen_values(self):
        assert exponent(1, 0, 0) == Fraction(-1)
        assert exponent(2, 1, 0) == Fraction(1, 4)
        assert critical_j(1, 0) == Fraction(3)
        assert critical_j(2, 0) == Fraction(3, 2)

    def test_critical_j_zeroes_exponent(self):
        for n in range(1, 21):
            for m in range(6):
                jc = critical_j(n, m)
                # evaluate the exponent formula at the rational critical point
                val = Fraction(-1, 2) + m - Fraction(1, 2 * n) + jc * Fraction(n, n + 2)
                assert val == 0

    def test_monotone_in_j(self):
        for n in (1, 2, 3, 5):
            vals = [exponent(n, 0, j) for j in range(8)]
            assert vals == sorted(vals)
            assert len(set(vals)) == len(vals)

    def test_routes_agree_only_at_n2(self):
        for n in range(1, 21):
            for m in range(6):
                for j in range(4):
                    agree = exponent(n, m, j) == alt_exponent(n, m, j)
                    assert agree == (n == 2), (n, m, j)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponent(0, 0, 0)
        with pytest.raises(ValueError):
            critical_j(1, -1)


class TestClassification:
    def test_leading_term_always_diverges(self):
        for n in range(1, 51):
            rep = classify_term(n, 0, 0)
            assert rep.classification == DIVERGES
            assert rep.exponent < 0

    def test_unique_finite_candidate_when_critical_j_integral(self):
        # n = 1, m = 0 has critical j = 3, an integer
        tags = [classify_term(1, 0, j).classification for j in range(6)]
        assert tags.count(FINITE_CANDIDATE) == 1
        assert tags[3] == FINITE_CANDIDATE
        assert tags[4] == VANISHES

    def test_classify_pairing_never_converges(self):
        for n in (1, 2, 3):
            d = DeformationSpec(n=n, lam=Fraction(1, 2))
            reports, converges = classify_pairing(d, m_max=2)
            assert not converges
            assert any(r.classification == DIVERGES for r in reports)
            # momentum deformations attach a mu moment to every term
            assert all(r.mu_moment is not None for r in reports)

    def test_deformation_validation(self):
        with pytest.raises(ValueError):
            DeformationSpec(n=0)
        with pytest.raises(ValueError):
            DeformationSpec(lam=Fraction(0))
        with pytest.raises(ValueError):
            DeformationSpec(hbar=-1.0)
        # an empty table must not read as convergent
        with pytest.raises(ValueError, match="m_max must be >= 0"):
            classify_pairing(DeformationSpec(n=2), m_max=-1)


class TestOscillatoryMoment:
    def test_gaussian_fresnel(self):
        want = math.sqrt(math.pi) * cmath.exp(1j * math.pi / 4)
        assert oscillatory_moment(0, 2, 1.0) == pytest.approx(want)

    def test_second_moment(self):
        want = (math.sqrt(math.pi) / 2) * cmath.exp(3j * math.pi / 4)
        assert oscillatory_moment(1, 2, 1.0) == pytest.approx(want)

    def test_quartic_phase(self):
        want = 0.5 * math.gamma(0.25) * cmath.exp(1j * math.pi / 8)
        assert oscillatory_moment(0, 4, 1.0) == pytest.approx(want)

    def test_negative_parameter_conjugates(self):
        assert oscillatory_moment(1, 2, -0.7) == oscillatory_moment(1, 2, 0.7).conjugate()

    def test_odd_phase_power_is_real(self):
        val = oscillatory_moment(0, 3, 1.3)
        assert val.imag == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            oscillatory_moment(0, 1, 1.0)
        with pytest.raises(ValueError):
            oscillatory_moment(0, 2, 0.0)
        with pytest.raises(ValueError):
            oscillatory_moment_quadrature(0, 2, 0.0)

    @pytest.mark.parametrize(
        "j,k,a", [(0, 2, 1.0), (1, 2, 0.5), (0, 3, 1.0), (2, 4, 2.0), (1, 3, 1.0)]
    )
    def test_quadrature_oracle_agrees(self, j, k, a):
        got = oscillatory_moment_quadrature(j, k, a)
        want = oscillatory_moment(j, k, a)
        # scale by the half-line magnitude: odd-k full-line moments can be
        # exactly zero, so a plain relative error is ill-posed
        s = 2 * j + 1
        scale = 2.0 * (1.0 / k) * math.gamma(s / k) * a ** (-s / k)
        assert abs(got - want) / scale < 1e-8


class TestPositionPairing:
    def test_undeformed_limit(self):
        res = position_pairing(2)
        assert res.converges
        assert res.effective_coefficient(0.0) == pytest.approx(-0.5)

    def test_profile_matches_closed_form(self):
        hbar = 0.7
        res = position_pairing(2, hbar=hbar)
        for b in (0.0, 0.5, 1.0, 2.0):
            got = res.effective_coefficient(b)
            want = -(hbar**2) / 2.0 * (1.0 + 2.0 * b**2) ** (-1.5)
            assert abs(got - want) < 1e-6 * abs(want)

    def test_n2_unit_sample_ratio(self):
        res = position_pairing(2)
        ratio = res.effective_coefficient(1.0) / res.effective_coefficient(0.0)
        assert ratio == pytest.approx(3.0 ** (-1.5), rel=1e-6)

    def test_singular_sample_rejected(self):
        res = position_pairing(1)
        for beta in (-0.5, -1.0):
            with pytest.raises(SingularSampleError):
                res.effective_coefficient(beta)

    def test_surviving_terms(self):
        for n in (1, 2, 3, 4):
            assert surviving_position_terms(n) == [(2, (), Fraction(1))]

    def test_series_orders(self):
        assert position_series_orders(2) == [Fraction(0), Fraction(3, 2), Fraction(2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            position_pairing(0)
        for hbar in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="hbar must be positive and finite"):
                position_pairing(2, hbar=hbar)


class TestStandardCheck:
    def test_prefactor(self):
        got = schrodinger_prefactor(1.0)
        want = math.sqrt(2.0 * math.pi) * cmath.exp(1j * math.pi / 4)
        assert abs(got - want) < 1e-15

    def test_kinetic_and_potential(self):
        res = standard_schrodinger_check(hbar=1.0)
        assert res.converges
        assert res.details["kinetic"] == pytest.approx(-0.5, abs=1e-12)
        assert res.details["potential_unit"] == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_kinetic_scales_with_hbar(self, hbar):
        res = standard_schrodinger_check(hbar=hbar)
        assert res.details["kinetic"] == pytest.approx(-(hbar**2) / 2.0, rel=1e-10)

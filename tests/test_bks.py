import cmath
import math
import warnings
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
    classify_rows,
    classify_term,
    critical_j,
    exponent,
    oscillatory_moment,
    oscillatory_moment_quadrature,
    position_pairing,
    schrodinger_prefactor,
    surviving_position_terms,
)
from pseudoquant.bks import _quadpack_value, _regulated_half_line, _scipy_extension


class TestExponents:
    def test_frozen_values(self):
        assert exponent(1, 0, 0) == Fraction(-1)
        assert exponent(2, 1, 0) == Fraction(1, 4)
        assert critical_j(1, 0) == Fraction(3)
        assert critical_j(2, 0) == Fraction(3, 2)

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
    def test_unique_finite_candidate_when_critical_j_integral(self):
        # n = 1, m = 0 has critical j = 3, an integer
        tags = [classify_term(1, 0, j).classification for j in range(6)]
        assert tags.count(FINITE_CANDIDATE) == 1
        assert tags[3] == FINITE_CANDIDATE
        assert tags[4] == VANISHES

    @pytest.mark.parametrize("n", range(1, 7))
    def test_row_count_is_the_table_length(self, n):
        for m_max in range(6):
            assert classify_rows(n, m_max) == len(classify_pairing(DeformationSpec(n), m_max)[0])

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

    @pytest.mark.parametrize("j,k,a", [(1, 2, -0.5), (0, 3, -1.0)])
    def test_quadrature_oracle_negative_parameter(self, j, k, a):
        got = oscillatory_moment_quadrature(j, k, a)
        want = oscillatory_moment(j, k, a)
        # criterion 08's bound, scaled by the half-line magnitude
        s = 2 * j + 1
        scale = 2.0 * (1.0 / k) * math.gamma(s / k) * abs(a) ** (-s / k)
        assert abs(got - want) / scale < 1e-8

    @staticmethod
    def _quad_half_line(j, k, a, eps):
        """``_regulated_half_line`` through ``scipy.integrate.quad``, the public route to the
        same QUADPACK routines, its accuracy warnings ignored."""
        from scipy import integrate

        c = (2 * j + 1) / k
        p = 2.0 / k

        def damp(u):
            return math.exp(-eps * u**p)

        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            for trig, weight in ((math.cos, "cos"), (math.sin, "sin")):
                near, _ = integrate.quad(lambda u: trig(a * u) * damp(u), 0.0, 1.0,
                                         weight="alg", wvar=(c - 1.0, 0.0), epsabs=1e-12,
                                         epsrel=1e-12, limit=400)
                far, _ = integrate.quad(lambda u: u ** (c - 1.0) * damp(u), 1.0, math.inf,
                                        weight=weight, wvar=a, epsabs=1e-12, limlst=400,
                                        limit=400)
                out.append(near + far)
        return (out[0] + 1j * out[1]) / k

    # verify-paper's five oscillatory-oracle cases, then j = 3, k = 2 and j = 0, k = 6
    @pytest.mark.parametrize("j,k,a", [
        (0, 2, 1.0), (1, 2, 1.0), (0, 4, 1.0), (2, 3, 0.5), (1, 5, 2.0),
        (3, 2, 0.5), (3, 2, 2.0), (0, 6, 0.5), (0, 6, 2.0),
    ])
    def test_regulated_half_line_matches_quad_bitwise(self, j, k, a):
        """Every rung of the oracle's regulator ladder equals the ``quad`` route bit for bit.

        A scipy release that changes the private QUADPACK signatures fails here.
        """
        for eps in (0.3 / 3.0**i for i in range(8)):
            got = _regulated_half_line(j, k, a, eps)
            want = self._quad_half_line(j, k, a, eps)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), eps

    @pytest.mark.parametrize("ier", [0, 1, 2, 3, 4, 5, 7])
    def test_quadpack_value_keeps_an_inaccurate_estimate(self, ier):
        assert _quadpack_value((0.25, 1e-3, ier)) == 0.25

    @pytest.mark.parametrize("ier", [6, 80])
    def test_quadpack_value_rejects_invalid_input(self, ier):
        with pytest.raises(ValueError, match=f"ier={ier}"):
            _quadpack_value((0.25, 0.0, ier))

    def test_missing_compiled_module_is_named(self):
        with pytest.raises(ImportError, match=r"no compiled module scipy\.linalg\._nosuch") as err:
            _scipy_extension("linalg._nosuch")
        assert err.value.name == "scipy.linalg._nosuch"

    def test_validation(self):
        with pytest.raises(ValueError):
            oscillatory_moment(0, 1, 1.0)
        with pytest.raises(ValueError):
            oscillatory_moment(0, 2, 0.0)
        with pytest.raises(ValueError):
            oscillatory_moment_quadrature(0, 2, 0.0)


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

    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("n", [0, 2])
    def test_non_finite_sample_rejected(self, n, beta):
        res = position_pairing(n)
        with pytest.raises(ValueError, match="^beta must be finite, got beta = "):
            res.effective_coefficient(beta)

    def test_surviving_terms(self):
        for n in (1, 2, 3, 4):
            assert surviving_position_terms(n) == [(2, (), Fraction(1))]

    @staticmethod
    def full_scan(n):
        """Every order 0..6 with every combination of up to two factors, none pruned."""
        combos = [()] + [(j,) for j in range(1, n + 1)]
        combos += [(j, k) for j in range(1, n + 1) for k in range(1, n + 1)]
        survivors = set()
        for lam in range(7):
            for extra in combos:
                power = Fraction(lam, 2) + sum(Fraction(jj, 2) + 1 for jj in extra)
                if power == 1 and (lam + sum(extra)) % 2 == 0:
                    survivors.add((lam, tuple(sorted(extra)), power))
        return sorted(survivors)

    @pytest.mark.parametrize("n", range(31))
    def test_pruned_scan_is_the_full_scan(self, n):
        assert surviving_position_terms(n) == self.full_scan(n)

    def test_validation(self):
        with pytest.raises(ValueError, match="deformation order n must be >= 0"):
            position_pairing(-1)
        for hbar in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="hbar must be positive and finite"):
                position_pairing(2, hbar=hbar)


class TestStandardCheck:
    BETAS = (0.0, 0.7, -3.0, 1e3)  # n = 0: the weight is 1 at every beta

    def test_prefactor(self):
        got = schrodinger_prefactor(1.0)
        want = math.sqrt(2.0 * math.pi) * cmath.exp(1j * math.pi / 4)
        assert abs(got - want) < 1e-15

    def test_kinetic_and_potential(self):
        # n = 0 is the undeformed pairing: the free kinetic weight at every beta; the unit
        # potential weight is checked by verify's undeformed-recovery check (criterion 07)
        res = position_pairing(0, hbar=1.0)
        assert res.converges
        for beta in self.BETAS:
            assert res.effective_coefficient(beta) == pytest.approx(-0.5, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_kinetic_scales_with_hbar(self, hbar):
        res = position_pairing(0, hbar=hbar)
        for beta in self.BETAS:
            assert res.effective_coefficient(beta) == pytest.approx(-(hbar**2) / 2.0, rel=1e-10)

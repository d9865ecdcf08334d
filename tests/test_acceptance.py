"""End-to-end acceptance battery.

Each test prints exactly one PASS/FAIL line (bypassing output capture) and
then asserts, so the verdict list is visible in any pytest run.  One known
failure is expected and documented in the criterion's docstring: the scaled
position-dependent connection does not preserve flat sections for the
linear-momentum monomials, so the corresponding grid prediction cannot hold.
"""

import math
import sys
import time

import numpy as np
import pytest

from pseudoquant import bks, dynamics, verify
from pseudoquant.polarisation import classify_monomials, preserves, scaled_connection
from pseudoquant.symcore import ChartSpec, Poly

import conftest


def _report(num: int, desc: str, fn):
    try:
        fn()
    except BaseException:
        line = f"CRITERION {num:02d} [FAIL] {desc}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        raise
    line = f"CRITERION {num:02d} [PASS] {desc}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def battery():
    """Every ``verify.ALL_CHECKS`` entry run once: {function name: (result, wall seconds)}."""
    out = {}
    for check in verify.ALL_CHECKS:
        t0 = time.perf_counter()
        result = check()
        out[check.__name__] = (result, time.perf_counter() - t0)
    return out


def _passed(battery, name: str) -> float:
    """Assert that the named check passed; return its wall time in seconds."""
    result, seconds = battery[name]
    assert result.status == verify.PASS, result.line()
    return seconds


def test_criterion_01_canonical_recovery(battery):
    def body():
        assert _passed(battery, "check_canonical") < 1.0

    _report(1, "canonical commutators recovered exactly on 1-3 degrees of freedom", body)


def test_criterion_02_folded_commutator(battery):
    def body():
        assert _passed(battery, "check_folded") < 1.0

    _report(2, "folded connection gives -i*hbar*(2 - p1) exactly, other pairs canonical", body)


def test_criterion_03_cylinder_family(battery):
    def body():
        _passed(battery, "check_cylinder_rational")
        # float shadow at the sign-reversing irrational scale, at (l, phi_l) = (0.7, 0.1)
        _passed(battery, "check_cylinder_irrational")

    _report(3, "cylinder commutator family exact for rational scales, +i*hbar at sqrt(2)-1", body)


def test_criterion_04_structural_vs_formula_oracle(battery):
    def body():
        assert _passed(battery, "check_structural_vs_closed_form") < 10.0
        result, _ = battery["check_structural_vs_closed_form"]
        assert result.details.startswith("800 random pairs across 4 connections")

    _report(4, "structural commutator equals closed-form oracle on 200 random pairs per connection", body)


def test_criterion_05_preservation_grid():
    """EXPECTED FAILURE.

    The standard grid and the general-scaled failure behave as predicted.
    The scaled position-dependent case does not: for Theta = (1 + f(beta))
    * theta the linear-momentum monomials (m = 1) acquire the exact residual
    'multiplication by -f', which no choice of f != 0 removes, so the
    prediction that m <= 1 preserves cannot hold there.  The residuals are
    computed exactly and reported; the assertion is kept as stated rather
    than weakened to match the computation.
    """

    def body():
        table = classify_monomials(3, 3, case="standard")
        for (m, n), rep in table.items():
            assert rep.preserves == (m <= 1), ("standard", m, n)
        chart = ChartSpec((("a1", "b1"),))
        alpha = Poly.var(chart, "a1")
        beta = Poly.var(chart, "b1")
        for f in (alpha, beta, alpha * beta, beta**2, alpha**2):
            assert not preserves(alpha, scaled_connection(chart, f)).preserves
        f = beta**2
        table = classify_monomials(3, 3, deformation=f, case="polarised-scaled", chart=chart)
        for (m, n), rep in table.items():
            assert rep.preserves == (m <= 1), ("polarised-scaled", m, n, rep.residuals)

    _report(5, "preservation grid: m <= 1 monomials preserve in standard and scaled cases", body)


def test_criterion_06_divergence_and_exponent_identity(battery):
    def body():
        _passed(battery, "check_divergence")
        _passed(battery, "check_exponent_identity")

    _report(6, "leading pairing term diverges for n <= 50; critical-j identity exact for n <= 20", body)


def test_criterion_07_position_pairing_coefficient(battery):
    def body():
        seconds = _passed(battery, "check_position_pairing") + _passed(battery, "check_prefactor")
        assert seconds < 30.0

    _report(7, "position-deformed pairing gives -hbar^2/2 * (1+2 beta^2)^(-3/2) and the standard prefactor", body)


def test_criterion_08_oscillatory_oracle():
    """Runs its own 60-case grid: in ``verify-paper`` it would add about 0.6 s to every run
    and change the printed, digest-pinned case count."""

    def body():
        for j in range(4):
            for k in range(2, 7):
                for a in (0.5, 1.0, 2.0):
                    got = bks.oscillatory_moment_quadrature(j, k, a)
                    want = bks.oscillatory_moment(j, k, a)
                    s = 2 * j + 1
                    # relative to the half-line magnitude: odd-k full-line
                    # moments can be exactly zero
                    scale = 2.0 * (1.0 / k) * math.gamma(s / k) * a ** (-s / k)
                    assert abs(got - want) / scale < 1e-8, (j, k, a)

    _report(8, "Gamma closed form matches regulated quadrature within 1e-8 on the full moment grid", body)


def test_criterion_09_dynamics():
    """Runs its own 2048-node, 1000-step evolutions: in ``verify-paper`` they would add
    about 0.2 s to every run and change its printed, digest-pinned figures."""

    def body():
        t0 = time.perf_counter()
        hbar, sigma, q0, p0 = 1.0, 1.0, -2.0, 1.0
        g = dynamics.Grid1D(-20.0, 20.0, 2048)
        out = dynamics.evolve(
            dynamics.gaussian_state(g, q0, p0, sigma, hbar),
            dynamics.EvolutionConfig(n=0, hbar=hbar, dt=1e-3, steps=1000),
        )
        w_exact = dynamics.free_gaussian_width(sigma, hbar, 1.0)
        assert abs(dynamics.width_q(out) - w_exact) / w_exact < 1e-4
        exact = dynamics.free_gaussian_exact(g, q0, p0, sigma, hbar, 1.0)
        err = np.max(np.abs(out.psi - exact.psi)) / np.max(np.abs(exact.psi))
        assert err < 1e-4

        g2 = dynamics.Grid1D(-15.0, 15.0, 2048)
        state = dynamics.gaussian_state(g2, 0.0, 0.5, 1.0, hbar)
        w0 = dynamics.weighted_norm(state, 2)
        l0 = dynamics.l2_norm(state)
        out2 = dynamics.evolve(state, dynamics.EvolutionConfig(n=2, hbar=hbar, dt=1e-3, steps=1000))
        assert abs(dynamics.weighted_norm(out2, 2) - w0) / w0 < 1e-8
        assert abs(dynamics.l2_norm(out2) - l0) / l0 > 1e-6
        assert time.perf_counter() - t0 < 60.0

    _report(9, "free Gaussian matches analytic spreading within 1e-4; deformed run conserves the weighted norm only", body)


def test_criterion_10_lattice_counts(battery):
    def body():
        _passed(battery, "check_lattice_counts")

    _report(10, "level dimensions 2E-1 and folded lattice points match brute-force enumeration", body)


def test_criterion_11_documented_discrepancies(battery):
    def body():
        results = [result for result, _ in battery.values()]
        fails = [r for r in results if r.status == verify.FAIL]
        flags = [r for r in results if r.status == verify.FLAG]
        assert not fails, [r.check_id for r in fails]
        assert {r.check_id for r in flags} == {
            "coupled-positions-commutator",
            "paired-shift-example",
            "exponent-cross-check",
        }
        assert len(flags) == 3
        by_id = {r.check_id: r.details for r in flags}
        # each flag prints both the computed and the counterpart value
        assert "stated value: i*hbar" in by_id["coupled-positions-commutator"]
        assert "computed with the position coupling: 0" in by_id["coupled-positions-commutator"]
        assert "computed curvature coefficient" in by_id["paired-shift-example"]
        assert "stated" in by_id["paired-shift-example"]
        assert "primary" in by_id["exponent-cross-check"]
        assert "independent" in by_id["exponent-cross-check"]

    _report(11, "verification battery flags exactly the three documented discrepancies, no failures", body)

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from pseudoquant.bks import position_pairing
from pseudoquant.dynamics import (
    BoundaryLeakWarning,
    EvolutionConfig,
    Grid1D,
    Propagator,
    WaveState,
    check_boundary_mass,
    evolve,
    expectation_q,
    free_gaussian_exact,
    free_gaussian_width,
    gaussian_state,
    kinetic_profile,
    l2_norm,
    suggested_domain,
    weighted_norm,
    width_q,
)


class TestSetupValidation:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(-1.0, -2.0, 64)
        with pytest.raises(ValueError):
            Grid1D(-1.0, 1.0, 4)
        g = Grid1D(-1.0, 1.0, 9)
        assert g.dq == pytest.approx(0.25)
        assert g.q[0] == -1.0 and g.q[-1] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(n=-1, hbar=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            EvolutionConfig(n=0, hbar=0.0, dt=1e-3)
        with pytest.raises(ValueError):
            EvolutionConfig(n=0, hbar=1.0, dt=1e-3, steps=0)

    def test_singular_grid_rejected(self):
        g = Grid1D(-2.0, 2.0, 64)
        with pytest.raises(ValueError):
            kinetic_profile(g.q, 1)

    def test_suggested_domain(self):
        lo, hi = suggested_domain(1, 10.0)
        assert lo > -0.5 and hi == 10.0
        assert suggested_domain(2, 10.0) == (-10.0, 10.0)
        assert suggested_domain(0, 10.0) == (-10.0, 10.0)

    def test_state_shape_checked(self):
        g = Grid1D(-1.0, 1.0, 16)
        with pytest.raises(ValueError):
            WaveState(g, np.zeros(8))


class TestHamiltonianAction:
    def test_zero_state_fixed_point(self):
        g = Grid1D(-5.0, 5.0, 128)
        cfg = EvolutionConfig(n=2, hbar=1.0, dt=1e-3, steps=5)
        out = evolve(WaveState(g, np.zeros(g.nodes)), cfg)
        assert np.all(out.psi == 0.0)
        assert out.t == pytest.approx(5e-3)

    def test_constant_interior_annihilated(self):
        # H annihilates a constant, so a step maps it to itself up to roundoff
        g = Grid1D(-5.0, 5.0, 128)
        cfg = EvolutionConfig(n=2, hbar=1.0, dt=1e-3)
        out = Propagator(g, cfg).step(WaveState(g, np.ones(g.nodes)))
        assert np.max(np.abs(out.psi - 1.0)) < 1e-12

    def test_profiles_are_reciprocal(self):
        g = Grid1D(-3.0, 3.0, 50)
        q = g.q
        assert np.allclose(kinetic_profile(q, 2) * (1.0 + 2.0 * q**2) ** 1.5, 1.0)
        assert np.all(kinetic_profile(q, 0) == 1.0)
        # weighted_norm weighs |psi|^2 with 1/c = (1 + 2 q^2)^(3/2)
        state = gaussian_state(g, 0.3, 0.0, 1.0, 1.0)
        want = math.sqrt(np.sum((1.0 + 2.0 * q**2) ** 1.5 * np.abs(state.psi) ** 2) * g.dq)
        assert weighted_norm(state, 2) == pytest.approx(want, rel=1e-12)


def _free_cn_reference(grid, hbar, dt, steps, psi0):
    """Independent free-particle trapezoidal stepper (n = 0 only)."""
    m = grid.nodes
    k = -(hbar**2 / 2.0) * np.ones(m) / grid.dq**2
    lower = np.zeros(m, dtype=complex)
    diag = np.zeros(m, dtype=complex)
    upper = np.zeros(m, dtype=complex)
    diag[1:-1] = -2.0 * k[1:-1]
    upper[2:] = k[1:-1]
    lower[:-2] = k[1:-1]
    z = 1j * dt / (2.0 * hbar)
    A = np.zeros((3, m), dtype=complex)
    B = np.zeros((3, m), dtype=complex)
    A[0], A[1], A[2] = z * upper, 1.0 + z * diag, z * lower
    B[0], B[1], B[2] = -z * upper, 1.0 - z * diag, -z * lower
    A[1, 0] = A[1, -1] = B[1, 0] = B[1, -1] = 1.0
    A[0, 1] = A[2, -2] = B[0, 1] = B[2, -2] = 0.0
    psi = psi0.astype(complex)
    for _ in range(steps):
        rhs = B[1] * psi
        rhs[:-1] += B[0, 1:] * psi[1:]
        rhs[1:] += B[2, :-1] * psi[:-1]
        psi = solve_banded((1, 1), A, rhs)
    return psi


class TestPairingDrivesPropagator:
    """The pairing's derived coefficient is the profile the propagator integrates."""

    @pytest.mark.parametrize("hbar", [1.0, 0.37])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pairing_coefficient_is_kinetic_profile(self, n, hbar):
        grid = Grid1D(*suggested_domain(n, 3.0), 257)
        q = grid.q
        pairing = position_pairing(n, hbar)
        got = np.array([pairing.effective_coefficient(float(x)) for x in q])
        want = -(hbar**2) / 2.0 * kinetic_profile(q, n)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


class TestFreeEvolution:
    def test_matches_independent_reference_bitwise(self):
        g = Grid1D(-20.0, 20.0, 512)
        state = gaussian_state(g, 0.0, 0.5, 1.0, 1.0)
        cfg = EvolutionConfig(n=0, hbar=1.0, dt=1e-3, steps=50)
        out = evolve(state, cfg)
        ref = _free_cn_reference(g, 1.0, 1e-3, 50, state.psi)
        assert np.array_equal(out.psi, ref)

    def test_free_gaussian_width_and_pointwise(self):
        g = Grid1D(-20.0, 20.0, 2048)
        hbar, sigma, q0, p0 = 1.0, 1.0, -2.0, 1.0
        state = gaussian_state(g, q0, p0, sigma, hbar)
        cfg = EvolutionConfig(n=0, hbar=hbar, dt=1e-3, steps=1000)
        out = evolve(state, cfg)
        exact = free_gaussian_exact(g, q0, p0, sigma, hbar, 1.0)
        w_exact = free_gaussian_width(sigma, hbar, 1.0)
        assert abs(width_q(out) - w_exact) / w_exact < 1e-4
        err = np.max(np.abs(out.psi - exact.psi)) / np.max(np.abs(exact.psi))
        assert err < 1e-4
        assert expectation_q(out) == pytest.approx(q0 + p0, abs=1e-3)

    def test_second_order_convergence(self):
        # halving both dq and dt must cut the error by ~4 (trapezoidal + centered)
        hbar, sigma, q0, p0, T = 1.0, 1.0, -2.0, 1.0, 1.0
        errs = []
        for nodes, dt in ((1025, 2e-3), (2049, 1e-3)):
            g = Grid1D(-20.0, 20.0, nodes)
            out = evolve(
                gaussian_state(g, q0, p0, sigma, hbar),
                EvolutionConfig(n=0, hbar=hbar, dt=dt, steps=round(T / dt)),
            )
            exact = free_gaussian_exact(g, q0, p0, sigma, hbar, T)
            errs.append(float(np.max(np.abs(out.psi - exact.psi))))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0


class TestDeformedEvolution:
    def test_weighted_norm_conserved_l2_not(self):
        g = Grid1D(-15.0, 15.0, 2048)
        state = gaussian_state(g, 0.0, 0.5, 1.0, 1.0)
        cfg = EvolutionConfig(n=2, hbar=1.0, dt=1e-3, steps=1000)
        w0, l0 = weighted_norm(state, 2), l2_norm(state)
        out = evolve(state, cfg)
        assert abs(weighted_norm(out, 2) - w0) / w0 < 1e-8
        assert abs(l2_norm(out) - l0) / l0 > 1e-6

    def test_propagator_matches_step_loop(self):
        g = Grid1D(-10.0, 10.0, 256)
        cfg = EvolutionConfig(n=2, hbar=1.0, dt=5e-3, steps=10)
        state = gaussian_state(g, 0.0, 0.0, 1.0, 1.0)
        prop = Propagator(g, cfg)
        cur = state
        for _ in range(10):
            cur = prop.step(cur)
        out = evolve(state, cfg)
        assert np.array_equal(cur.psi, out.psi)
        assert cur.t == pytest.approx(out.t)


class TestBoundaryGuard:
    def test_leak_warning(self):
        g = Grid1D(-5.0, 5.0, 128)
        psi = np.ones(g.nodes, dtype=complex)
        with pytest.warns(BoundaryLeakWarning):
            check_boundary_mass(WaveState(g, psi), tol=1e-6)

    def test_centered_packet_quiet(self):
        g = Grid1D(-20.0, 20.0, 512)
        state = gaussian_state(g, 0.0, 0.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryLeakWarning)
            frac = check_boundary_mass(state, tol=1e-6)
        assert frac < 1e-12

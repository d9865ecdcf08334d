import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_banded

from pseudoquant.bks import PositionDeformation, position_pairing
from pseudoquant.dynamics import (
    BoundaryLeakWarning,
    BoundaryWatch,
    EvolutionConfig,
    Grid1D,
    Propagator,
    WaveState,
    _cn_matrices,
    _conserved_weight,
    evolve,
    expectation_q,
    free_gaussian_exact,
    free_gaussian_width,
    gaussian_state,
    kinetic_profile,
    l2_norm,
    suggested_domain,
    variance_q,
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
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
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


class TestStepper:
    """Propagator.step is pinned bitwise to a plain banded solve of A psi_new = B psi_old."""

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_matches_solve_banded_bitwise(self, n):
        grid = Grid1D(*suggested_domain(n, 12.0), 2048)
        cfg = EvolutionConfig(n=n, hbar=1.0, dt=1e-3)
        q0 = 3.5 if n % 2 else 0.0
        state = gaussian_state(grid, q0, 0.5, 0.8, 1.0)
        A, B = _cn_matrices(grid, cfg)
        prop = Propagator(grid, cfg)
        cur, psi = state, state.psi
        for _ in range(400):
            cur = prop.step(cur)
            rhs = B[1] * psi
            rhs[:-1] += B[0, 1:] * psi[1:]
            rhs[1:] += B[2, :-1] * psi[:-1]
            psi = solve_banded((1, 1), A, rhs)
        assert np.array_equal(cur.psi, psi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_rejected(self, bad):
        grid = Grid1D(-5.0, 5.0, 64)
        prop = Propagator(grid, EvolutionConfig(n=2, hbar=1.0, dt=1e-3))
        for part in ("real", "imag"):
            psi = gaussian_state(grid, 0.0, 0.0, 1.0, 1.0).psi.copy()
            getattr(psi, part)[20] = bad
            assert np.isfinite(getattr(psi, "imag" if part == "real" else "real")).all()
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                prop.step(WaveState(grid, psi))


def _reference_diagnostics(grid, psi, n):
    """l2_norm, weighted_norm, expectation_q and variance_q written out from fresh arrays."""
    q = np.linspace(grid.q_min, grid.q_max, grid.nodes)
    w = PositionDeformation(n).conserved_weight(q)
    dens = np.abs(psi) ** 2
    mass = float(np.sum(dens) * grid.dq)
    mean = float(np.sum(q * dens) * grid.dq) / mass
    return (
        math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.dq)),
        math.sqrt(float(np.sum(w * np.abs(psi) ** 2) * grid.dq)),
        mean,
        float(np.sum((q - mean) ** 2 * dens) * grid.dq) / mass,
    )


def _stepped_state(n, steps=5):
    grid = Grid1D(*suggested_domain(n, 12.0), 2048)
    prop = Propagator(grid, EvolutionConfig(n=n, hbar=1.0, dt=1e-3))
    state = gaussian_state(grid, 3.5 if n % 2 else 0.0, 0.5, 0.8, 1.0)
    for _ in range(steps):
        state = prop.step(state)
    return state


def _diagnostics(state, n):
    return l2_norm(state), weighted_norm(state, n), expectation_q(state), variance_q(state)


class TestDiagnostics:
    """The norms and moments are pinned bitwise to their formulas on fresh arrays."""

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_match_reference_formulas_bitwise(self, n):
        state = _stepped_state(n)
        assert _diagnostics(state, n) == _reference_diagnostics(state.grid, state.psi, n)

    @pytest.mark.parametrize("moment", [expectation_q, variance_q, width_q])
    def test_empty_state_moments_raise(self, moment):
        state = WaveState(Grid1D(-5.0, 5.0, 64), np.zeros(64, dtype=complex))
        assert l2_norm(state) == 0.0 and weighted_norm(state, 2) == 0.0
        with pytest.raises(ValueError, match="^the state is empty"):
            moment(state)


class TestWaveState:
    """A state owns read-only amplitudes and computes its density, mass and mean once."""

    def test_psi_is_read_only_and_owned(self):
        grid = Grid1D(-10.0, 10.0, 256)
        psi = gaussian_state(grid, 0.5, 0.3, 1.0, 1.0).psi.copy()
        kept = psi.copy()
        state = WaveState(grid, psi)
        psi[:] = 0.0
        assert np.array_equal(state.psi, kept)
        assert _diagnostics(state, 2) == _reference_diagnostics(grid, kept, 2)
        with pytest.raises(ValueError, match="read-only"):
            state.psi[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.density[0] = 1.0
        with pytest.raises(AttributeError):
            state.t = 1.0

    def test_states_compare_and_hash_by_identity(self):
        grid = Grid1D(-5.0, 5.0, 64)
        a, b = WaveState(grid, np.ones(64)), WaveState(grid, np.ones(64))
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    @pytest.mark.parametrize("first", range(4), ids=["l2", "weighted", "mean", "variance"])
    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_diagnostics_bitwise_in_any_order(self, n, first):
        state = _stepped_state(n)
        diagnostics = [l2_norm, lambda s: weighted_norm(s, n), expectation_q, variance_q]
        order = diagnostics[first:] + diagnostics[:first]
        got = [d(state) for d in order]
        want = _reference_diagnostics(state.grid, state.psi, n)
        assert got == list(want[first:] + want[:first])

    def test_stepped_states_own_fresh_read_only_arrays(self):
        grid = Grid1D(-10.0, 10.0, 256)
        prop = Propagator(grid, EvolutionConfig(n=2, hbar=1.0, dt=1e-3))
        state = gaussian_state(grid, 0.0, 0.5, 1.0, 1.0)
        first = prop.step(state)
        second = prop.step(first)
        scratch = prop._products[0].base  # the buffer both off-diagonal products share
        arrays = [state.psi, first.psi, second.psi, scratch]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        for s in (first, second):
            with pytest.raises(ValueError, match="read-only"):
                s.psi[0] = 1.0

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_stepped_state_diagnostics_equal_a_built_state_bitwise(self, n):
        stepped = _stepped_state(n)
        built = WaveState(stepped.grid, stepped.psi.copy(), stepped.t)
        assert _diagnostics(stepped, n) == _diagnostics(built, n)

    def test_step_leaves_its_input_untouched_and_undiagnosed(self):
        grid = Grid1D(-10.0, 10.0, 256)
        prop = Propagator(grid, EvolutionConfig(n=2, hbar=1.0, dt=1e-3))
        state = gaussian_state(grid, 0.0, 0.5, 1.0, 1.0)
        psi, t = state.psi.copy(), state.t
        out = prop.step(state)
        assert np.array_equal(state.psi, psi) and state.t == t
        assert not np.shares_memory(out.psi, state.psi)
        assert not {"density", "mass", "mean_q"} & set(vars(out))


class TestGridCache:
    """A grid's coordinates and conserved weights are built once and cannot be written."""

    def test_q_is_built_once(self):
        g = Grid1D(-1.0, 1.0, 9)
        assert g.q is g.q

    def test_cached_arrays_are_read_only(self):
        g = Grid1D(-3.0, 3.0, 50)
        with pytest.raises(ValueError, match="read-only"):
            g.q[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            _conserved_weight(g, 2)[0] = 0.0

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_diagnostics_build_no_arrays_after_first_call(self, n, monkeypatch):
        state = _stepped_state(n, steps=1)
        first = _diagnostics(state, n)
        calls = {"linspace": 0, "conserved_weight": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "linspace", counted("linspace", np.linspace))
        monkeypatch.setattr(PositionDeformation, "conserved_weight",
                            counted("conserved_weight", PositionDeformation.conserved_weight))
        for _ in range(100):
            assert _diagnostics(state, n) == first
        assert calls == {"linspace": 0, "conserved_weight": 0}


class TestGaussianState:
    def test_overflowing_phase_rejected_quietly(self):
        # p0 * q overflows, so exp gives NaN; the CLI cases of tests/test_cli.py cover the rest
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no finite, nonzero mass on the grid"):
                gaussian_state(Grid1D(-5.0, 5.0, 64), 0.0, 1e308, 1.0, 1.0)


class TestBoundaryGuard:
    def test_leak_warning(self):
        g = Grid1D(-5.0, 5.0, 128)
        psi = np.ones(g.nodes, dtype=complex)
        with pytest.warns(BoundaryLeakWarning, match="at step 0 "):
            evolve(WaveState(g, psi), EvolutionConfig(n=0, hbar=1.0, dt=1e-3, steps=1))

    @pytest.mark.parametrize("nodes", [8, 9, 10, 11, 16])
    def test_fraction_counts_each_node_once(self, nodes):
        # under 2 * margin nodes the two edge windows would overlap
        grid = Grid1D(-5.0, 5.0, nodes)
        psi = np.random.default_rng(nodes).normal(size=nodes) + 0.5j
        watch = BoundaryWatch()
        watch.record(WaveState(grid, psi))
        m = BoundaryWatch.margin
        dens = np.abs(psi) ** 2
        edge = [i for i in range(nodes) if i < m or i >= nodes - m]
        assert watch.largest <= 1.0
        assert watch.largest == pytest.approx(dens[edge].sum() / dens.sum(), rel=1e-12)
        if nodes <= 2 * m:
            assert watch.largest == 1.0

    def test_centered_packet_quiet(self):
        g = Grid1D(-20.0, 20.0, 512)
        state = gaussian_state(g, 0.0, 0.0, 1.0, 1.0)
        watch = BoundaryWatch()
        watch.record(state)
        assert watch.largest < 1e-12
        assert watch.report() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryLeakWarning)
            evolve(state, EvolutionConfig(n=0, hbar=1.0, dt=1e-3, steps=5))

    def test_reflected_packet_warns_once_naming_first_step(self):
        # Aimed at the right edge, the packet reflects off it and is back inside by the
        # last step: only a check at every step sees that it touched the boundary.
        g = Grid1D(-10.0, 10.0, 1024)
        cfg = EvolutionConfig(n=0, hbar=1.0, dt=2e-3, steps=600)
        state = gaussian_state(g, 5.0, 10.0, 0.5, 1.0)

        def edge_fraction(psi):
            dens = np.abs(psi) ** 2
            return (dens[:5].sum() + dens[-5:].sum()) / dens.sum()

        prop, cur, fracs = Propagator(g, cfg), state, [edge_fraction(state.psi)]
        for _ in range(cfg.steps):
            cur = prop.step(cur)
            fracs.append(edge_fraction(cur.psi))
        first = next(k for k, f in enumerate(fracs) if f > 1e-6)
        assert 0 < first and fracs[-1] < 1e-8

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = evolve(state, cfg)
        assert [w.category for w in caught] == [BoundaryLeakWarning]
        message = str(caught[0].message)
        assert f"at step {first} (t={first * cfg.dt:g})" in message
        assert f"largest {max(fracs):.3e}" in message
        assert np.array_equal(out.psi, cur.psi)

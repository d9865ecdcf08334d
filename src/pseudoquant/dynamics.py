"""Deformed 1-d Schroedinger evolution on a uniform grid.

The Hamiltonian is H = -(hbar^2/2) * c(q) * d^2/dq^2, stated once in
``_cn_matrices``.  The kinetic profile c(q) = (1 + 2*q^n)^(-3/2) (c = 1 for
n = 0) and the conserved weight 1/c(q) come from ``bks.PositionDeformation``,
the owner the pairing reads too.  Time stepping is the implicit trapezoidal
(Crank-Nicolson) rule: its tridiagonal matrix is factorised once with LAPACK
``zgttrf`` and each step back-solves with ``zgttrs``.  Both come from scipy's
compiled ``scipy.linalg._flapack``, loaded without importing ``scipy.linalg``;
they are the objects ``scipy.linalg.lapack`` exports.

A grid's spacing ``Grid1D.dq``, its coordinates ``Grid1D.q`` and the conserved
weight ``weighted_norm`` reads are computed once per grid (and order n); the
arrays are shared read-only: writing into them raises ValueError, so copy
before modifying.  A ``WaveState`` is immutable and its amplitudes are
read-only, so copy ``psi`` before modifying it too.  A state built by a caller
owns a copy of the array it was given; a state returned by ``Propagator.step``
owns the solver's fresh result, which nothing else holds.  A state's density
|psi|^2, mass and mean position are computed once per state, by the first
diagnostic that reads them, and never by a step.

Plain L2 norm is not conserved for n > 0 because diag(1/c) H, not H, is
symmetric; the weighted norm integral of |psi|^2 / c is conserved to roundoff.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bks import PositionDeformation, _scipy_extension

_flapack = _scipy_extension("linalg._flapack")
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs


class BoundaryLeakWarning(UserWarning):
    """The wavepacket has reached the artificial grid boundary."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [q_min, q_max] with ``nodes`` points, endpoints included."""

    q_min: float
    q_max: float
    nodes: int

    def __post_init__(self):
        if self.nodes < 8:
            raise ValueError("need at least 8 grid nodes")
        if not self.q_max > self.q_min:
            raise ValueError("empty grid interval")

    @functools.cached_property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.nodes - 1)

    @functools.cached_property
    def q(self) -> np.ndarray:
        """The node coordinates, built once and read-only."""
        q = np.linspace(self.q_min, self.q_max, self.nodes)
        q.flags.writeable = False
        return q


@dataclass(frozen=True)
class EvolutionConfig:
    """Evolution parameters: deformation order n, hbar, time step, step count."""

    n: int
    hbar: float
    dt: float
    steps: int = 1

    def __post_init__(self):
        PositionDeformation(self.n)  # rejects n < 0
        if not all(x > 0 and math.isfinite(x) for x in (self.hbar, self.dt)):
            raise ValueError("hbar and dt must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


class _once:
    """``functools.cached_property`` without the lock Python 3.11 takes on each first read."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, eq=False)
class WaveState:
    """Complex amplitudes on a grid at a given time, read-only and owned by the state.

    States compare and hash by identity: two states with equal amplitudes are distinct.
    """

    grid: Grid1D
    psi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        psi = np.array(self.psi, dtype=np.complex128)
        if psi.shape != (self.grid.nodes,):
            raise ValueError("amplitude array does not match the grid")
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    @classmethod
    def _taking(cls, grid: Grid1D, psi: np.ndarray, t: float) -> WaveState:
        """A state that takes ``psi``, a fresh complex grid-shaped array nothing else holds."""
        psi.flags.writeable = False
        state = object.__new__(cls)
        d = state.__dict__
        d["grid"], d["psi"], d["t"] = grid, psi, t
        return state

    @_once
    def density(self) -> np.ndarray:
        """|psi|^2, computed once and read-only."""
        dens = np.abs(self.psi)
        np.square(dens, out=dens)
        dens.flags.writeable = False
        return dens

    @_once
    def mass(self) -> float:
        """The integral of |psi|^2 over the grid."""
        return float(self.density.sum() * self.grid.dq)

    @_once
    def mean_q(self) -> float:
        """The mean position; a ValueError when the state has no mass."""
        if self.mass == 0.0:
            raise ValueError("the state is empty: with no mass on the grid, q moments are undefined")
        return float((self.grid.q * self.density).sum() * self.grid.dq) / self.mass


def kinetic_profile(q: np.ndarray, n: int) -> np.ndarray:
    """c(q) of ``PositionDeformation(n)``; a grid that reaches its singular locus is an error."""
    deformation = PositionDeformation(n)
    if np.any(deformation.singular(q)):
        raise ValueError(f"grid reaches the singular locus 1 + 2*q^{n} <= 0; shrink the domain")
    return deformation.kinetic_profile(q)


def _cn_matrices(grid: Grid1D, cfg: EvolutionConfig):
    """Banded (A, B) with A psi_new = B psi_old for the trapezoidal step."""
    q = grid.q
    c = kinetic_profile(q, cfg.n)
    m = grid.nodes
    # H in banded form (tridiagonal): H psi = d*psi + off-diagonal couplings.
    k = -(cfg.hbar**2 / 2.0) * c / grid.dq**2
    lower = np.zeros(m, dtype=np.complex128)
    diag = np.zeros(m, dtype=np.complex128)
    upper = np.zeros(m, dtype=np.complex128)
    diag[1:-1] = -2.0 * k[1:-1]
    upper[2:] = k[1:-1]      # coupling of node i to i+1, stored banded-style
    lower[:-2] = k[1:-1]     # coupling of node i to i-1
    z = 1j * cfg.dt / (2.0 * cfg.hbar)
    A = np.zeros((3, m), dtype=np.complex128)
    B = np.zeros((3, m), dtype=np.complex128)
    A[0] = z * upper
    A[1] = 1.0 + z * diag
    A[2] = z * lower
    B[0] = -z * upper
    B[1] = 1.0 - z * diag
    B[2] = -z * lower
    # Pinned endpoints: psi stays 0 at the boundary rows.
    A[1, 0] = A[1, -1] = 1.0
    A[0, 1] = A[2, -2] = 0.0
    B[1, 0] = B[1, -1] = 1.0
    B[0, 1] = B[2, -2] = 0.0
    return A, B


class Propagator:
    """Keeps B's bands and the LU factors of A, factorised once, for repeated stepping."""

    def __init__(self, grid: Grid1D, cfg: EvolutionConfig):
        self.grid = grid
        self.cfg = cfg
        try:
            with np.errstate(all="ignore"):
                A, B = _cn_matrices(grid, cfg)
            finite = bool(np.isfinite(A).all() and np.isfinite(B).all())
        except OverflowError:  # from the float powers of hbar and dq
            finite = False
        if not finite:
            raise ValueError(
                f"Crank-Nicolson coefficients are not finite for hbar={cfg.hbar:g}, "
                f"dt={cfg.dt:g} and grid spacing {grid.dq:g}"
            )
        *self._lu, info = zgttrf(A[2, :-1], A[1], A[0, 1:])
        if info != 0:
            raise np.linalg.LinAlgError(f"Crank-Nicolson matrix is singular (zgttrf info={info})")
        self._bands = (B[1], B[0, 1:], B[2, :-1])  # diagonal, upper, lower
        # the two off-diagonal products share one scratch buffer
        scratch = np.empty(grid.nodes, dtype=np.complex128)
        self._products = (scratch[:-1], scratch[1:])

    def step(self, state: WaveState) -> WaveState:
        psi = state.psi
        if not np.isfinite(psi.view(np.float64)).all():  # real and imaginary parts in one pass
            raise ValueError("array must not contain infs or NaNs")
        diag, upper, lower = self._bands
        below, above = self._products
        rhs = diag * psi  # B psi in a new array, which the solve overwrites and the new state takes
        np.multiply(upper, psi[1:], out=below)
        rhs[:-1] += below
        np.multiply(lower, psi[:-1], out=above)
        rhs[1:] += above
        psi_new, info = zgttrs(*self._lu, rhs, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgttrs info={info}")
        return WaveState._taking(state.grid, psi_new, state.t + self.cfg.dt)


def evolve(state: WaveState, cfg: EvolutionConfig) -> WaveState:
    """Run cfg.steps trapezoidal steps; warn once if any state reached the grid boundary."""
    prop = Propagator(state.grid, cfg)
    watch = BoundaryWatch()
    cur = state
    watch.record(cur)
    for _ in range(cfg.steps):
        cur = prop.step(cur)
        watch.record(cur)
    report = watch.report()
    if report:
        warnings.warn(report, BoundaryLeakWarning, stacklevel=2)
    return cur


class BoundaryWatch:
    """Probability fraction within ``margin`` nodes of either grid edge, state by state.

    Each node counts once, so on a grid of at most 2 * ``margin`` nodes every node is
    an edge node and the fraction is 1.

    Step k is the k-th recorded state, the initial one being step 0.  ``report``
    names the first step over ``tol`` and the largest fraction seen, or is None.
    """

    tol = 1e-6
    margin = 5

    def __init__(self):
        self.records = 0
        self.first_over: tuple[int, float] | None = None  # (step, t)
        self.largest = 0.0

    def record(self, state: WaveState) -> None:
        psi, m = state.psi, self.margin
        # head, inner and tail are disjoint also on grids of fewer than 2*m nodes
        head, inner, tail = psi[:m], psi[m:-m], psi[max(m, psi.size - m):]
        edge = np.vdot(head, head).real + np.vdot(tail, tail).real
        total = edge + np.vdot(inner, inner).real
        frac = float(edge / total) if total > 0 else 0.0
        if frac > self.largest:
            self.largest = frac
        if self.first_over is None and frac > self.tol:
            self.first_over = (self.records, state.t)
        self.records += 1

    def report(self) -> str | None:
        if self.first_over is None:
            return None
        step, t = self.first_over
        return (
            f"boundary probability fraction first exceeded {self.tol:.1e} at step {step} "
            f"(t={t:g}), largest {self.largest:.3e}; enlarge the domain or shorten the run"
        )


# -- norms and moments ---------------------------------------------------------


def l2_norm(state: WaveState) -> float:
    return math.sqrt(state.mass)


@functools.lru_cache(maxsize=8)
def _conserved_weight(grid: Grid1D, n: int) -> np.ndarray:
    """``PositionDeformation(n).conserved_weight`` on ``grid.q``, read-only; keeps the last 8."""
    w = PositionDeformation(n).conserved_weight(grid.q)
    w.flags.writeable = False
    return w


def weighted_norm(state: WaveState, n: int) -> float:
    w = _conserved_weight(state.grid, n)
    return math.sqrt(float((w * state.density).sum() * state.grid.dq))


def expectation_q(state: WaveState) -> float:
    return state.mean_q


def variance_q(state: WaveState) -> float:
    dev = state.grid.q - state.mean_q
    np.square(dev, out=dev)
    dev *= state.density
    return float(dev.sum() * state.grid.dq) / state.mass


def width_q(state: WaveState) -> float:
    return math.sqrt(variance_q(state))


# -- reference solutions -------------------------------------------------------


def gaussian_state(
    grid: Grid1D, q0: float, p0: float, sigma: float, hbar: float
) -> WaveState:
    """Normalised Gaussian packet centred at q0 with mean momentum p0.

    A sigma whose normalisation is not a finite float, or a packet whose samples
    have no finite, nonzero mass on the grid, is a ValueError.
    """
    q = grid.q
    try:
        norm = (2.0 * math.pi * sigma**2) ** (-0.25)
    except (OverflowError, ZeroDivisionError):  # sigma**2 overflows or underflows to 0
        raise ValueError(
            f"the Gaussian normalisation (2*pi*sigma^2)^(-1/4) is not a finite float "
            f"for sigma={sigma:g}"
        ) from None
    with np.errstate(all="ignore"):
        psi = norm * np.exp(-((q - q0) ** 2) / (4.0 * sigma**2) + 1j * p0 * q / hbar)
        state = WaveState(grid, psi, 0.0)
        l2 = l2_norm(state)
    if not 0.0 < l2 < math.inf:
        raise ValueError(
            f"the Gaussian (q0={q0:g}, p0={p0:g}, sigma={sigma:g}) has no finite, nonzero "
            f"mass on the grid [{grid.q_min:g}, {grid.q_max:g}] with {grid.nodes} nodes"
        )
    return state


def free_gaussian_exact(
    grid: Grid1D, q0: float, p0: float, sigma: float, hbar: float, t: float
) -> WaveState:
    """Closed-form free evolution (n = 0) of ``gaussian_state``."""
    q = grid.q
    s = 1.0 + 1j * hbar * t / (2.0 * sigma**2)
    psi = (
        (2.0 * math.pi * sigma**2) ** (-0.25)
        / np.sqrt(s)
        * np.exp(
            -((q - q0 - p0 * t) ** 2) / (4.0 * sigma**2 * s)
            + 1j * (p0 * (q - q0) - p0**2 * t / 2.0) / hbar
            + 1j * p0 * q0 / hbar
        )
    )
    return WaveState(grid, psi, t)


def free_gaussian_width(sigma: float, hbar: float, t: float) -> float:
    """Exact position width of the spreading free Gaussian."""
    return sigma * math.sqrt(1.0 + (hbar * t / (2.0 * sigma**2)) ** 2)


def suggested_domain(n: int, q_max: float) -> tuple[float, float]:
    """``PositionDeformation(n).domain(q_max)``: clear of the singular locus."""
    return PositionDeformation(n).domain(q_max)


__all__ = [
    "BoundaryLeakWarning",
    "BoundaryWatch",
    "EvolutionConfig",
    "Grid1D",
    "Propagator",
    "WaveState",
    "evolve",
    "expectation_q",
    "free_gaussian_exact",
    "free_gaussian_width",
    "gaussian_state",
    "kinetic_profile",
    "l2_norm",
    "suggested_domain",
    "variance_q",
    "weighted_norm",
]

"""Deformed 1-d Schroedinger evolution on a uniform grid.

The Hamiltonian is H = -(hbar^2/2) * c(q) * d^2/dq^2, stated once in
``_cn_matrices``.  The kinetic profile c(q) = (1 + 2*q^n)^(-3/2) (c = 1 for
n = 0) and the conserved weight 1/c(q) come from ``bks.PositionDeformation``,
the owner the pairing reads too.  Time stepping is the implicit trapezoidal
(Crank-Nicolson) rule solved with banded LU.

Plain L2 norm is not conserved for n > 0 because diag(1/c) H, not H, is
symmetric; the weighted norm integral of |psi|^2 / c is conserved to roundoff.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .bks import PositionDeformation


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

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.nodes - 1)

    @property
    def q(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.nodes)


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


@dataclass
class WaveState:
    """Complex amplitudes on a grid at a given time."""

    grid: Grid1D
    psi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=np.complex128)
        if self.psi.shape != (self.grid.nodes,):
            raise ValueError("amplitude array does not match the grid")


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
    """Caches the banded Crank-Nicolson matrices for repeated stepping."""

    def __init__(self, grid: Grid1D, cfg: EvolutionConfig):
        self.grid = grid
        self.cfg = cfg
        self.A, self.B = _cn_matrices(grid, cfg)

    def _multiply_banded(self, M: np.ndarray, psi: np.ndarray) -> np.ndarray:
        out = M[1] * psi
        out[:-1] += M[0, 1:] * psi[1:]
        out[1:] += M[2, :-1] * psi[:-1]
        return out

    def step(self, state: WaveState) -> WaveState:
        rhs = self._multiply_banded(self.B, state.psi)
        psi_new = solve_banded((1, 1), self.A, rhs)
        return WaveState(state.grid, psi_new, state.t + self.cfg.dt)


def evolve(state: WaveState, cfg: EvolutionConfig) -> WaveState:
    """Run cfg.steps trapezoidal steps, warning on boundary mass."""
    prop = Propagator(state.grid, cfg)
    cur = state
    for _ in range(cfg.steps):
        cur = prop.step(cur)
    check_boundary_mass(cur)
    return cur


def check_boundary_mass(state: WaveState, tol: float = 1e-6, margin: int = 5) -> float:
    """Fraction of probability within ``margin`` nodes of either boundary."""
    dens = np.abs(state.psi) ** 2
    total = float(np.sum(dens) * state.grid.dq)
    edge = float((np.sum(dens[:margin]) + np.sum(dens[-margin:])) * state.grid.dq)
    frac = edge / total if total > 0 else 0.0
    if frac > tol:
        warnings.warn(
            f"boundary probability fraction {frac:.3e} exceeds {tol:.1e}; "
            "enlarge the domain or shorten the run",
            BoundaryLeakWarning,
            stacklevel=2,
        )
    return frac


# -- norms and moments ---------------------------------------------------------


def l2_norm(state: WaveState) -> float:
    return math.sqrt(float(np.sum(np.abs(state.psi) ** 2) * state.grid.dq))


def weighted_norm(state: WaveState, n: int) -> float:
    w = PositionDeformation(n).conserved_weight(state.grid.q)
    return math.sqrt(float(np.sum(w * np.abs(state.psi) ** 2) * state.grid.dq))


def expectation_q(state: WaveState) -> float:
    dens = np.abs(state.psi) ** 2
    mass = float(np.sum(dens) * state.grid.dq)
    return float(np.sum(state.grid.q * dens) * state.grid.dq) / mass


def variance_q(state: WaveState) -> float:
    dens = np.abs(state.psi) ** 2
    mass = float(np.sum(dens) * state.grid.dq)
    mean = float(np.sum(state.grid.q * dens) * state.grid.dq) / mass
    return float(np.sum((state.grid.q - mean) ** 2 * dens) * state.grid.dq) / mass


def width_q(state: WaveState) -> float:
    return math.sqrt(variance_q(state))


# -- reference solutions -------------------------------------------------------


def gaussian_state(
    grid: Grid1D, q0: float, p0: float, sigma: float, hbar: float
) -> WaveState:
    """Normalised Gaussian packet centred at q0 with mean momentum p0."""
    q = grid.q
    psi = (2.0 * math.pi * sigma**2) ** (-0.25) * np.exp(
        -((q - q0) ** 2) / (4.0 * sigma**2) + 1j * p0 * q / hbar
    )
    return WaveState(grid, psi, 0.0)


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
    "EvolutionConfig",
    "Grid1D",
    "Propagator",
    "WaveState",
    "check_boundary_mass",
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

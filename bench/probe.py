"""Host-speed probes.

The benchmark shares a 2-vCPU virtual machine with other tenants, and the
speed it gets drifts by up to 2x over minutes: the same pass of
``exact-sweep`` at the same seed took 1.0 s and, half an hour later, 2.0 s.
Within one run the drift hits the program and a probe doing the same kind
of work alike, so each timed end-to-end metric is reported at a reference
speed: the raw time of each stretch between two probes times the probe's
``reference_s`` over the probes' mean.  Raw figures are kept in the run
record.

Each workload uses the probe that matches its work (checked by how well the
ratio stays put while the host drifts):

- ``arith``: exact arithmetic on dicts of ``Fraction`` pairs, for the
  symbolic workloads;
- ``numpy``: banded solves and reductions on 2048-node complex arrays, for
  ``numeric``;
- ``startup``: a fresh interpreter importing numpy and scipy, for ``cli``
  and for every workload's set-up time.

The probes use only the standard library, numpy and scipy, never
``pseudoquant``, so no change to the program can change what they measure.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns


def _elapsed(fn) -> float:
    start = perf_counter_ns()
    fn()
    return (perf_counter_ns() - start) / 1e9


# -- arith ---------------------------------------------------------------------------


def _poly(rng: random.Random, n: int) -> dict:
    return {
        tuple(rng.randint(0, 3) for _ in range(7)): (
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        for _ in range(n)
    }


_RNG = random.Random("host-probe")
_P, _Q = _poly(_RNG, 12), _poly(_RNG, 12)


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, (r1, i1) in a.items():
        for e2, (r2, i2) in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            old = out.get(e)
            out[e] = (re, im) if old is None else (old[0] + re, old[1] + im)
    return out


def _arith() -> None:
    for _ in range(12):
        _mul(_P, _Q)


# -- numpy ---------------------------------------------------------------------------

_ARRAYS = {}


def _numpy() -> None:
    import numpy as np
    from scipy.linalg import solve_banded

    if not _ARRAYS:
        q = np.linspace(-12.0, 12.0, 2048)
        ab = np.zeros((3, q.size), dtype=complex)
        ab[0], ab[1], ab[2] = 0.3j, 1.0 + 0.6j, 0.3j
        _ARRAYS.update(q=q, ab=ab, psi=np.exp(-q**2) * (1.0 + 0.5j))
    q, ab, psi = _ARRAYS["q"], _ARRAYS["ab"], _ARRAYS["psi"]
    for _ in range(80):
        rhs = ab[1] * psi
        rhs[:-1] += ab[0, 1:] * psi[1:]
        rhs[1:] += ab[2, :-1] * psi[:-1]
        psi = solve_banded((1, 1), ab, rhs)
        dens = np.abs(psi) ** 2
        mass = float(np.sum(dens))
        weight = (1.0 + 2.0 * np.linspace(-12.0, 12.0, q.size) ** 2) ** 1.5
        float(np.sum(weight * dens))
        mean = float(np.sum(q * dens)) / mass
        float(np.sum((np.linspace(-12.0, 12.0, q.size) - mean) ** 2 * dens))
        psi = psi / np.sqrt(mass)


# -- startup -------------------------------------------------------------------------


def _startup() -> None:
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg, scipy.integrate"],
                   check=True, capture_output=True, timeout=60)


class Probe:
    """A fixed kernel, its time on an idle host, and how often to run it."""

    def __init__(self, name: str, kernel, reference_s: float, every_s: float):
        self.name, self.kernel = name, kernel
        self.reference_s, self.every_s = reference_s, every_s

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        return _elapsed(self.kernel)

    def factor(self, samples) -> float:
        """Multiply a raw time by this to quote it at the reference speed."""
        return self.reference_s / statistics.median(samples)


PROBES = {
    "arith": Probe("arith", _arith, reference_s=0.02, every_s=0.5),
    "numpy": Probe("numpy", _numpy, reference_s=0.015, every_s=0.5),
    "startup": Probe("startup", _startup, reference_s=0.5, every_s=1.0),
}

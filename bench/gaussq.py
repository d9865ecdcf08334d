"""Exact Gaussian-rational evaluation, independent of ``pseudoquant.symcore``.

A Gaussian rational is a pair ``(re, im)`` of ``Fraction``s.  ``evaluate``
reads a Poly's public data (``chart.pairs`` and the ``terms`` map of
exponent tuples to coefficients with ``re``/``im`` parts) and does all
arithmetic here, so it can check ``Poly ** k`` and ``Poly.substitute``
without trusting the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def power(a, k: int):
    """a**k by repeated multiplication (deliberately the naive route)."""
    out = ONE
    for _ in range(k):
        out = mul(out, a)
    return out


def variables(poly) -> tuple[str, ...]:
    """Variable order of a Poly: hbar, then every alpha, then every beta."""
    pairs = poly.chart.pairs
    return ("hbar",) + tuple(p[0] for p in pairs) + tuple(p[1] for p in pairs)


def evaluate(poly, point: dict) -> tuple[Fraction, Fraction]:
    """Exact value of ``poly`` at ``point`` (a map from variable name to pair)."""
    vals = [point[name] for name in variables(poly)]
    total = ZERO
    for exp, coeff in poly.terms.items():
        term = (Fraction(coeff.re), Fraction(coeff.im))
        for v, k in zip(vals, exp):
            if k:
                term = mul(term, power(v, k))
        total = add(total, term)
    return total


def random_point(names, rng: random.Random, den: int = 5) -> dict:
    """Seeded Gaussian-rational values for the given variable names."""
    return {
        name: (
            Fraction(rng.randint(-den, den), rng.randint(1, den)),
            Fraction(rng.randint(-den, den), rng.randint(1, den)),
        )
        for name in names
    }

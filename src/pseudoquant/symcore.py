"""Exact symbolic calculus on a single cotangent chart.

Polynomials over the Gaussian rationals in the chart coordinates and the
formal symbol ``hbar``, plus one-forms, two-forms, vector fields, Poisson
brackets, the exterior derivative and pullbacks along polynomial maps.

Coefficient representation (as in FLINT's ``fmpq_poly``): a Poly stores
Gaussian-integer numerators ``(re, im)`` over one positive denominator
shared by all its terms, normalised so that the gcd of every numerator part
and the denominator is 1.  ``Poly`` does all exact arithmetic, on plain ints,
and normalises once per operation; it also owns the factor ``-i*hbar`` of
every quantised first-order term and every commutator.  ``Scalar`` is a
read-only ``(re, im)`` record of two ``Fraction``s with no arithmetic: it is
accepted by the ``Poly`` constructor and ``scale`` and returned by
``constant_value`` and the ``Poly.terms`` view.

Sign conventions, fixed once for the whole package:

    omega = sum_i d(alpha_i) ^ d(beta_i)
    X_A   = sum_i (dA/dalpha_i) d/dbeta_i - (dA/dbeta_i) d/dalpha_i
    {A,B} = omega(X_A, X_B)

so that {alpha_i, beta_i} = +1.

All values are immutable after construction and all operations are pure;
floats appear only through the explicit ``evaluate`` shadow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add as _add
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]


class ChartError(ValueError):
    """Mismatched or malformed chart data."""


class Scalar:
    """A read-only Gaussian rational ``re + i*im`` with ``Fraction`` parts.

    A record, not a number type: it has no arithmetic and no comparison.
    ``Poly`` does all exact arithmetic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return _gaussian_str(*_gaussian(self))


def _gaussian(c: Scalar | RationalLike) -> tuple[int, int, int]:
    """``(re, im, den)`` with ``c == (re + i*im) / den`` and ``den > 0``."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Scalar):
        rd, id_ = c.re.denominator, c.im.denominator
        den = lcm(rd, id_)
        return c.re.numerator * (den // rd), c.im.numerator * (den // id_), den
    c = Fraction(c)
    return c.numerator, 0, c.denominator


def _ratio_str(num: int, den: int) -> str:
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _gaussian_str(re: int, im: int, den: int) -> str:
    """Canonical, re-parseable text form of ``(re + i*im) / den``."""
    if not im:
        return _ratio_str(re, den)
    im_part = "i" if abs(im) == den else f"{_ratio_str(abs(im), den)}*i"
    if not re:
        return f"-{im_part}" if im < 0 else im_part
    return f"({_ratio_str(re, den)} {'-' if im < 0 else '+'} {im_part})"


@dataclass(frozen=True)
class ChartSpec:
    """A single cotangent chart with n canonically paired coordinates.

    ``pairs[i] = (alpha_i, beta_i)`` names the i-th momentum/position pair.
    Polynomial variables are ordered ``(hbar, alpha_1..alpha_n,
    beta_1..beta_n)``; covector and vector components follow the same
    coordinate order.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise ChartError("chart needs at least one coordinate pair")
        names = [n for p in self.pairs for n in p]
        if len(set(names)) != len(names) or "hbar" in names:
            raise ChartError("coordinate labels must be distinct and not 'hbar'")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @cached_property
    def coords(self) -> tuple[str, ...]:
        """All 2n coordinate names, alphas first."""
        return tuple(p[0] for p in self.pairs) + tuple(p[1] for p in self.pairs)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return ("hbar",) + self.coords

    def coord_index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise ChartError(f"unknown coordinate {name!r} on chart {self.coords}") from None

    def var_index(self, name: str) -> int:
        if name == "hbar":
            return 0
        return 1 + self.coord_index(name)


def standard_chart(n: int = 1, style: str = "pq") -> ChartSpec:
    """Chart with coordinates p1..pn/q1..qn (style 'pq') or a1../b1.. (style 'ab')."""
    a, b = ("p", "q") if style == "pq" else ("a", "b")
    return ChartSpec(tuple((f"{a}{i}", f"{b}{i}") for i in range(1, n + 1)))


class Poly:
    """Exact multivariate polynomial over the Gaussian rationals.

    ``nums`` maps an exponent tuple over ``chart.variables`` to a nonzero
    Gaussian-integer numerator ``(re, im)``; every coefficient shares the
    positive denominator ``den``.  The pair is kept in the normal form
    ``gcd(every re, every im, den) == 1`` (``den == 1`` for the zero Poly),
    so Polys over the same chart compare equal iff ``nums`` and ``den`` are
    equal.  Every exact operation on coefficients is a Poly operation;
    ``terms`` is a read-only ``{exponent: Scalar}`` view.
    """

    __slots__ = ("chart", "nums", "den")

    def __init__(
        self,
        chart: ChartSpec,
        terms: Mapping[tuple[int, ...], Scalar | RationalLike] | None = None,
    ):
        nv = len(chart.variables)
        parts = {}
        den = 1
        for exp, c in (terms or {}).items():
            re, im, d = _gaussian(c)
            if not (re or im):
                continue
            exp = tuple(exp)
            if len(exp) != nv or any(e < 0 for e in exp):
                raise ChartError(f"bad exponent tuple {exp} for chart with {nv} variables")
            parts[exp] = (re, im, d)
            den = lcm(den, d)
        nums, den = _reduce(
            {e: (re * (den // d), im * (den // d)) for e, (re, im, d) in parts.items()}, den
        )
        _set_chart(self, chart)
        _set_nums(self, nums)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: ChartSpec) -> "Poly":
        return _make(chart, {}, 1)

    @staticmethod
    def const(chart: ChartSpec, c: Scalar | RationalLike) -> "Poly":
        re, im, d = _gaussian(c)
        if not (re or im):
            return _make(chart, {}, 1)
        return _make(chart, {(0,) * len(chart.variables): (re, im)}, d)

    @staticmethod
    def var(chart: ChartSpec, name: str) -> "Poly":
        exp = [0] * len(chart.variables)
        exp[chart.var_index(name)] = 1
        return _make(chart, {tuple(exp): (1, 0)}, 1)

    @staticmethod
    def hbar(chart: ChartSpec) -> "Poly":
        return Poly.var(chart, "hbar")

    @staticmethod
    def minus_i_hbar(chart: ChartSpec) -> "Poly":
        """-i*hbar, the factor of op(A)'s first-order part and of every commutator."""
        return _make(chart, {(1,) + (0,) * (len(chart.variables) - 1): (0, -1)}, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """The coefficients as Scalars, built on each access."""
        den = self.den
        return {
            e: Scalar(Fraction(re, den), Fraction(im, den)) for e, (re, im) in self.nums.items()
        }

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.nums)

    def constant_value(self) -> Scalar:
        if not self.nums:
            return Scalar()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        ((re, im),) = self.nums.values()
        return Scalar(Fraction(re, self.den), Fraction(im, self.den))

    def depends_on(self, name: str) -> bool:
        i = self.chart.var_index(name)
        return any(e[i] for e in self.nums)

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction, Scalar)):
                other = Poly.const(self.chart, other)
            else:
                return NotImplemented
        return (
            self.den == other.den
            and self.nums == other.nums
            and (self.chart is other.chart or self.chart == other.chart)
        )

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.nums.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.chart is not self.chart and other.chart != self.chart:
                raise ChartError("chart mismatch in Poly arithmetic")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return Poly.const(self.chart, other)
        raise TypeError(f"cannot combine Poly with {type(other).__name__}")

    def __add__(self, other):
        if type(other) is not Poly or other.chart is not self.chart:
            other = self._coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, nums, m2 = d1, dict(self.nums), 1
        else:
            den = lcm(d1, d2)
            m1, m2 = den // d1, den // d2
            nums = {e: (re * m1, im * m1) for e, (re, im) in self.nums.items()}
        for e, (re, im) in other.nums.items():
            if m2 != 1:
                re, im = re * m2, im * m2
            old = nums.get(e)
            if old is None:
                nums[e] = (re, im)
            else:
                re += old[0]
                im += old[1]
                if re or im:
                    nums[e] = (re, im)
                else:
                    del nums[e]
        return _normal(self.chart, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.chart, {e: (-re, -im) for e, (re, im) in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not Poly or other.chart is not self.chart:
            other = self._coerce(other)
        return _normal(self.chart, _mul_nums(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """Left-to-right binary powering: bit_length(k) + popcount(k) - 2 products."""
        if k < 0:
            raise ValueError("negative powers are not polynomial")
        if k == 0:
            return Poly.const(self.chart, 1)
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def scale(self, c: Scalar | RationalLike) -> "Poly":
        cr, ci, d = _gaussian(c)
        if ci:
            nums = {e: (re * cr - im * ci, re * ci + im * cr) for e, (re, im) in self.nums.items()}
        elif cr:
            nums = {e: (re * cr, im * cr) for e, (re, im) in self.nums.items()}
        else:
            nums = {}
        return _normal(self.chart, nums, self.den * d)

    def div_minus_i_hbar(self) -> "Poly":
        """Exact division by -i*hbar; raises if any term lacks an hbar factor."""
        nums = {}
        for e, (re, im) in self.nums.items():
            if e[0] < 1:
                raise ValueError("polynomial is not divisible by hbar")
            nums[(e[0] - 1,) + e[1:]] = (-im, re)  # (re + i*im) * i
        return _make(self.chart, nums, self.den)

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "Poly":
        """Exact partial derivative with respect to a coordinate or hbar."""
        i = self.chart.var_index(name)
        nums = {}
        for e, (re, im) in self.nums.items():
            k = e[i]
            if k:
                nums[e[:i] + (k - 1,) + e[i + 1 :]] = (re * k, im * k)
        return _normal(self.chart, nums, self.den)

    def substitute(self, new_chart: ChartSpec, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Substitute every chart coordinate by a Poly over ``new_chart``.

        ``hbar`` maps to the new chart's hbar automatically.  Each term's
        image is accumulated as integer numerators over its own denominator;
        the sum is brought to one denominator and normalised once.
        """
        images = [Poly.hbar(new_chart)]
        for name in self.chart.coords:
            if name not in mapping:
                raise ChartError(f"substitution missing coordinate {name!r}")
            img = mapping[name]
            if img.chart != new_chart:
                raise ChartError("substitution image lives on the wrong chart")
            images.append(img)
        powers = [[img] for img in images]  # powers[i][k - 1] == images[i] ** k
        const = (0,) * len(new_chart.variables)
        pieces = []
        for e, c in self.nums.items():
            nums, den = {const: c}, 1
            for pw, k in zip(powers, e):
                if k:
                    while len(pw) < k:
                        pw.append(pw[-1] * pw[0])
                    nums = _mul_nums(nums, pw[k - 1].nums)
                    den *= pw[k - 1].den
            pieces.append((nums, den))
        den = lcm(*(d for _, d in pieces))
        out: dict[tuple[int, ...], tuple[int, int]] = {}
        for nums, d in pieces:
            m = den // d
            for e, (re, im) in nums.items():
                old = out.get(e)
                if old is None:
                    out[e] = (re * m, im * m)
                else:
                    out[e] = (old[0] + re * m, old[1] + im * m)
        out = {e: v for e, v in out.items() if v[0] or v[1]}
        return _normal(new_chart, out, den * self.den)

    def evaluate(self, values: Mapping[str, complex], hbar: complex = 1.0) -> complex:
        """Float shadow: evaluate at complex coordinate values."""
        vals = [complex(hbar)] + [complex(values[name]) for name in self.chart.coords]
        den = self.den
        total = 0j
        for e, (re, im) in self.nums.items():
            t = complex(re / den, im / den)
            for v, k in zip(vals, e):
                if k:
                    t *= v**k
            total += t
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.nums:
            return "0"
        names = self.chart.variables
        den = self.den
        units = {(den, 0): "", (-den, 0): "-", (0, den): "i*", (0, -den): "-i*"}
        parts = []
        for e in sorted(self.nums):
            re, im = self.nums[e]
            mono = "*".join(
                name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k
            )
            cs = _gaussian_str(re, im, den)
            if not mono:
                parts.append(cs)
            elif (re, im) in units:
                parts.append(units[re, im] + mono)
            else:
                if "/" in cs and not cs.startswith("("):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Poly({self})"


_new = object.__new__
_set_chart = Poly.chart.__set__
_set_nums = Poly.nums.__set__
_set_den = Poly.den.__set__


def _reduce(nums: dict, den: int) -> tuple[dict, int]:
    """Divide ``nums`` and ``den`` by their common gcd."""
    g = den
    for re, im in nums.values():
        g = gcd(g, re, im)
        if g == 1:
            return nums, den
    return {e: (re // g, im // g) for e, (re, im) in nums.items()}, den // g


def _make(chart: ChartSpec, nums: dict, den: int) -> Poly:
    """A Poly from data already in normal form with no zero numerators."""
    p = _new(Poly)
    _set_chart(p, chart)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


def _normal(chart: ChartSpec, nums: dict, den: int) -> Poly:
    """A Poly from nonzero numerators over a positive ``den``, normalised."""
    if den != 1:
        nums, den = _reduce(nums, den)
    return _make(chart, nums, den)


def _mul_nums(n1: dict, n2: dict) -> dict:
    """Product of two numerator maps, with cancelled terms dropped."""
    acc: dict[tuple[int, ...], tuple[int, int]] = {}
    get = acc.get
    for e1, (a, b) in n1.items():
        for e2, (c, d) in n2.items():
            e = tuple(map(_add, e1, e2))
            old = get(e)
            if old is None:
                acc[e] = (a * c - b * d, a * d + b * c)
            else:
                acc[e] = (old[0] + a * c - b * d, old[1] + a * d + b * c)
    if len(acc) == len(n1) * len(n2):  # no exponent was hit twice, so nothing cancelled
        return acc
    return {e: v for e, v in acc.items() if v[0] or v[1]}


# -- covector/vector index helpers ------------------------------------------


def covector_names(chart: ChartSpec) -> tuple[str, ...]:
    return tuple(f"d{c}" for c in chart.coords)


class OneForm:
    """A one-form with Poly coefficients over (d alpha_1..d alpha_n, d beta_1..)."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: ChartSpec, comps: Iterable[Poly]):
        comps = tuple(comps)
        if len(comps) != 2 * chart.n:
            raise ChartError("one-form needs 2n coefficient polynomials")
        for c in comps:
            if c.chart != chart:
                raise ChartError("one-form coefficient on the wrong chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("OneForm is immutable")

    @staticmethod
    def zero(chart: ChartSpec) -> "OneForm":
        z = Poly.zero(chart)
        return OneForm(chart, [z] * (2 * chart.n))

    @staticmethod
    def from_dict(chart: ChartSpec, entries: Mapping[str, Poly]) -> "OneForm":
        comps = [Poly.zero(chart)] * (2 * chart.n)
        for basis, coeff in entries.items():
            if not basis.startswith("d"):
                raise ChartError(f"covector name {basis!r} must start with 'd'")
            comps[chart.coord_index(basis[1:])] = coeff
        return OneForm(chart, comps)

    def __eq__(self, other):
        return (
            isinstance(other, OneForm)
            and self.chart == other.chart
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.chart, self.comps))

    def __add__(self, other):
        if other.chart != self.chart:
            raise ChartError("chart mismatch")
        return OneForm(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return OneForm(self.chart, [-a for a in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p: Poly | Scalar | RationalLike) -> "OneForm":
        if isinstance(p, Poly):
            return OneForm(self.chart, [a * p for a in self.comps])
        return OneForm(self.chart, [a.scale(p) for a in self.comps])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __str__(self):
        names = covector_names(self.chart)
        parts = [f"({c})*{nm}" for c, nm in zip(self.comps, names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class TwoForm:
    """A two-form stored on the canonical ordered basis dx_i ^ dx_j, i < j."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: ChartSpec, comps: Mapping[tuple[int, int], Poly] | None = None):
        clean: dict[tuple[int, int], Poly] = {}
        for (i, j), p in (comps or {}).items():
            if not (0 <= i < j < 2 * chart.n):
                raise ChartError(f"two-form index pair {(i, j)} not in canonical order")
            if p.chart != chart:
                raise ChartError("two-form coefficient on the wrong chart")
            if not p.is_zero():
                clean[(i, j)] = p
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TwoForm is immutable")

    @staticmethod
    def zero(chart: ChartSpec) -> "TwoForm":
        return TwoForm(chart)

    def component(self, i: int, j: int) -> Poly:
        """Coefficient of dx_i ^ dx_j for any index order (antisymmetry built in)."""
        if i == j:
            return Poly.zero(self.chart)
        if i < j:
            return self.comps.get((i, j), Poly.zero(self.chart))
        return -self.comps.get((j, i), Poly.zero(self.chart))

    def __eq__(self, other):
        return (
            isinstance(other, TwoForm)
            and self.chart == other.chart
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.chart, frozenset(self.comps.items())))

    def __add__(self, other):
        if other.chart != self.chart:
            raise ChartError("chart mismatch")
        out = dict(self.comps)
        for k, p in other.comps.items():
            out[k] = out.get(k, Poly.zero(self.chart)) + p
        return TwoForm(self.chart, out)

    def __neg__(self):
        return TwoForm(self.chart, {k: -p for k, p in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, p: Poly) -> "TwoForm":
        return TwoForm(self.chart, {k: q * p for k, q in self.comps.items()})

    def is_zero(self) -> bool:
        return not self.comps

    def pair(self, X: "VectorField", Y: "VectorField") -> Poly:
        """Evaluate on two vector fields."""
        if X.chart != self.chart or Y.chart != self.chart:
            raise ChartError("chart mismatch")
        out = Poly.zero(self.chart)
        for (i, j), c in self.comps.items():
            out = out + c * (X.comps[i] * Y.comps[j] - X.comps[j] * Y.comps[i])
        return out

    def __str__(self):
        names = covector_names(self.chart)
        parts = [
            f"({p})*{names[i]}^{names[j]}"
            for (i, j), p in sorted(self.comps.items())
            if not p.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class VectorField:
    """Vector field with Poly coefficients over (d/dalpha_i, d/dbeta_i)."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: ChartSpec, comps: Iterable[Poly]):
        comps = tuple(comps)
        if len(comps) != 2 * chart.n:
            raise ChartError("vector field needs 2n coefficient polynomials")
        for c in comps:
            if c.chart != chart:
                raise ChartError("vector field coefficient on the wrong chart")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.chart == other.chart
            and self.comps == other.comps
        )

    def __add__(self, other):
        if other.chart != self.chart:
            raise ChartError("chart mismatch")
        return VectorField(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return VectorField(self.chart, [-a for a in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def apply(self, p: Poly) -> Poly:
        """Directional derivative of a function."""
        if p.chart != self.chart:
            raise ChartError("chart mismatch")
        out = Poly.zero(self.chart)
        for comp, name in zip(self.comps, self.chart.coords):
            if not comp.is_zero():
                out = out + comp * p.partial(name)
        return out

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        """[X, Y] by coefficient calculus."""
        if other.chart != self.chart:
            raise ChartError("chart mismatch")
        return VectorField(
            self.chart,
            [self.apply(oc) - other.apply(sc) for oc, sc in zip(other.comps, self.comps)],
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __str__(self):
        parts = [
            f"({c})*d/d{nm}"
            for c, nm in zip(self.comps, self.chart.coords)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class SmoothMap:
    """Polynomial map between charts: one source-chart Poly per target coordinate."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: ChartSpec, target: ChartSpec, comps: Iterable[Poly]):
        comps = tuple(comps)
        if len(comps) != 2 * target.n:
            raise ChartError("map needs one component per target coordinate")
        for c in comps:
            if c.chart != source:
                raise ChartError("map components must live on the source chart")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("SmoothMap is immutable")

    @staticmethod
    def identity(chart: ChartSpec) -> "SmoothMap":
        return SmoothMap(chart, chart, [Poly.var(chart, c) for c in chart.coords])

    def mapping(self) -> dict[str, Poly]:
        return dict(zip(self.target.coords, self.comps))


# -- operations --------------------------------------------------------------


def hamiltonian_vf(A: Poly) -> VectorField:
    """Hamiltonian vector field of A under the package sign convention."""
    chart = A.chart
    n = chart.n
    comps = [Poly.zero(chart)] * (2 * n)
    for i in range(n):
        alpha, beta = chart.pairs[i]
        comps[i] = -A.partial(beta)        # d/dalpha_i component
        comps[n + i] = A.partial(alpha)    # d/dbeta_i component
    return VectorField(chart, comps)


def poisson(A: Poly, B: Poly) -> Poly:
    """{A, B} = omega(X_A, X_B)."""
    if A.chart != B.chart:
        raise ChartError("chart mismatch in Poisson bracket")
    chart = A.chart
    out = Poly.zero(chart)
    for alpha, beta in chart.pairs:
        out = out + A.partial(alpha) * B.partial(beta) - A.partial(beta) * B.partial(alpha)
    return out


def exterior_d(phi: Union[Poly, OneForm]) -> Union[OneForm, TwoForm]:
    """Exterior derivative of a 0-form (Poly) or a one-form."""
    if isinstance(phi, Poly):
        chart = phi.chart
        return OneForm(chart, [phi.partial(c) for c in chart.coords])
    if isinstance(phi, OneForm):
        chart = phi.chart
        coords = chart.coords
        comps: dict[tuple[int, int], Poly] = {}
        for i in range(2 * chart.n):
            for j in range(i + 1, 2 * chart.n):
                c = phi.comps[j].partial(coords[i]) - phi.comps[i].partial(coords[j])
                if not c.is_zero():
                    comps[(i, j)] = c
        return TwoForm(chart, comps)
    raise TypeError("exterior_d expects a Poly or a OneForm")


def contract(theta: OneForm, X: VectorField) -> Poly:
    """Pointwise pairing theta(X)."""
    if theta.chart != X.chart:
        raise ChartError("chart mismatch in contraction")
    out = Poly.zero(theta.chart)
    for a, b in zip(theta.comps, X.comps):
        out = out + a * b
    return out


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    if a.chart != b.chart:
        raise ChartError("chart mismatch in wedge")
    chart = a.chart
    comps: dict[tuple[int, int], Poly] = {}
    for i in range(2 * chart.n):
        for j in range(i + 1, 2 * chart.n):
            c = a.comps[i] * b.comps[j] - a.comps[j] * b.comps[i]
            if not c.is_zero():
                comps[(i, j)] = c
    return TwoForm(chart, comps)


def standard_symplectic(chart: ChartSpec) -> TwoForm:
    """omega = sum_i dalpha_i ^ dbeta_i."""
    n = chart.n
    one = Poly.const(chart, 1)
    return TwoForm(chart, {(i, n + i): one for i in range(n)})


def standard_potential(chart: ChartSpec) -> OneForm:
    """theta = sum_i alpha_i dbeta_i, a potential of the standard omega."""
    n = chart.n
    comps = [Poly.zero(chart)] * (2 * n)
    for i in range(n):
        comps[n + i] = Poly.var(chart, chart.pairs[i][0])
    return OneForm(chart, comps)


def pullback_form(m: SmoothMap, phi: Union[Poly, OneForm, TwoForm]):
    """Pullback of a function, one-form or two-form along a polynomial map."""
    src, tgt = m.source, m.target
    mapping = m.mapping()
    if isinstance(phi, Poly):
        if phi.chart != tgt:
            raise ChartError("pullback argument must live on the target chart")
        return phi.substitute(src, mapping)
    if isinstance(phi, OneForm):
        if phi.chart != tgt:
            raise ChartError("pullback argument must live on the target chart")
        out = OneForm.zero(src)
        for comp, coeff in zip(m.comps, phi.comps):
            if coeff.is_zero():
                continue
            pulled = coeff.substitute(src, mapping)
            out = out + exterior_d(comp).scale(pulled)
        return out
    if isinstance(phi, TwoForm):
        if phi.chart != tgt:
            raise ChartError("pullback argument must live on the target chart")
        out = TwoForm.zero(src)
        for (i, j), coeff in phi.comps.items():
            pulled = coeff.substitute(src, mapping)
            dxi = exterior_d(m.comps[i])
            dxj = exterior_d(m.comps[j])
            out = out + wedge(dxi, dxj).scale(pulled)
        return out
    raise TypeError("pullback_form expects a Poly, OneForm or TwoForm")

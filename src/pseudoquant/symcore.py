"""Exact symbolic calculus on a single cotangent chart.

Polynomials over the Gaussian rationals in the chart coordinates and the
formal symbol ``hbar``, plus one-forms (a chart plus 2n coefficient Polys in
coordinate order), two-forms, Poisson brackets, the exterior derivative and
pullbacks of functions and one-forms along polynomial maps.  ``ChartSpec``
interns its charts: there is one chart object per ``pairs``, so chart
equality is identity (``is``), and a chart hashes by ``pairs``.

Coefficient representation (as in FLINT's ``fmpq_poly``): a Poly stores
Gaussian-integer numerators ``(re, im)`` over one positive denominator
shared by all its terms, normalised so that the gcd of every numerator part
and the denominator is 1.  ``Poly`` does all exact arithmetic, on plain ints.
One kernel, ``_sum_raw_products``, accumulates every exact sum of
``k * n1 * n2 / d`` over ``(k, n1, n2, d)`` on one common denominator (one
term is its own: ``d`` the denominator, ``k`` the factor), deletes what
cancels, tests every key against ``chart.top`` and ends in ``_normal``, the
one gcd pass.  ``_sum`` gives it each plain piece (``+``, ``-``, the
constructor, ``substitute``) times ``_ONE``, the constant 1; ``_sum_products``
gives Polys; ``_sum_derivations`` derives each q first (``exterior_d`` and
``FormalOperator.compose`` use ``Poly._partial``).  ``substitute`` and
``TwoForm._pair_raw`` take each product on the way as a one-term sum.
A Hamiltonian field has one representation, raw numerator maps:
``_hamiltonian_raw`` gives X_A's 2n maps over ``A.den``, and every reader
(the pairings and ``prequant._quantised``) takes them as they are.
``_hamiltonian_raw`` reads each chart's field layout, one ``(shift, unit,
target, sign)`` row per coordinate, from ``_field_table(chart)``, built once
per chart; that table is where the sign convention of X_A is written.  No
kernel works on a zero component: ``_sum_derivations`` skips a zero ``k`` or
``p`` before it derives ``q``, and ``prequant.commutator`` passes it no quad
whose ``q`` is zero.  Each chart has one zero Poly (``chart._zero``):
``Poly.zero``, a zero ``Poly.const``, ``_normal`` of an empty map and
``_sum_raw_products`` with no terms return it at once.  Sharing it is safe
because a Poly is immutable and no code writes into a ``nums`` map it did not
create.
omega is ``standard_symplectic(chart)``, built once per chart, and every
two-form, omega and Omega alike, is paired by ``TwoForm._pair_raw`` on raw
maps; it folds a real constant coefficient into each term's multiplier and
denominator, so a Poisson bracket is one sum of products.  Against a flat
direction X_{beta_i}, a constant unit field, ``TwoForm._pair_beta`` reads one
column of the form instead, with X_{beta_i}'s slot and sign from
``_field_table``.  The factor ``-i*hbar`` of every quantised first-order term
and commutator is an exponent shift and a rotation: ``prequant._quantised``
applies it to X_P's raw maps, and ``Poly.times_minus_i_hbar`` to a Poly
(``div_minus_i_hbar`` undoes that).
``Scalar`` is a read-only ``(re, im)`` record of two ``Fraction``s with no
arithmetic: it is accepted by the ``Poly`` constructor and ``scale`` and
returned by ``constant_value`` and the ``Poly.terms`` view.

Monomial keys are packed exponent vectors (Monagan and Pearce, CASC 2007):
one int with a ``FIELD_BITS`` = 16-bit field per variable, ``hbar`` in the
top field and the coordinates below it in ``chart.variables`` order
(``chart.shifts``).  A product's key is the sum of its factors' keys, a
derivative's key a difference, and packed keys sort as their exponent
tuples do, so printing is unchanged.  Every coordinate exponent stays below
``EXP_LIMIT`` = 32768, half a field, so a sum of two keys never carries: the
constructor rejects larger exponents, and every product tests its keys
against ``chart.top``, the fields' top bits, raising ``ChartError`` on
overflow.  ``hbar``'s top field is unbounded.  The constructor takes
exponent tuples and ``Poly.terms`` is the exponent-tuple view.

Sign conventions, fixed once for the whole package:

    omega = sum_i d(alpha_i) ^ d(beta_i)
    X_A   = sum_i (dA/dalpha_i) d/dbeta_i - (dA/dbeta_i) d/dalpha_i   (``_field_table``)
    {A,B} = omega(X_A, X_B)

so that {alpha_i, beta_i} = +1.

Every record (``_Record``) is built once through ``_Record.__init__``, after
its constructor validates, and is never set and never deleted; only the
trusted builders ``_make`` and ``prequant._make_op``, and the interning
``ChartSpec.__new__``, write slots directly.  All operations are pure;
floats appear only through the explicit ``evaluate`` shadow.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat
from math import gcd, lcm
from operator import lshift as _lshift
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]

FIELD_BITS = 16  # width of each variable's field in a packed exponent key
EXP_LIMIT = 1 << (FIELD_BITS - 1)  # every coordinate exponent stays below this
_FIELD_MASK = (1 << FIELD_BITS) - 1
_OVERFLOW = f"every coordinate exponent must stay below {EXP_LIMIT}"
_ONE = {0: (1, 0)}  # the numerator map of the constant 1; shared, so never written into


class ChartError(ValueError):
    """Mismatched or malformed chart data."""


class _Record:
    """Base of the exact records: built once through ``__init__``, never set, never deleted.

    ``__init__(*values)`` writes each slot once, in ``__slots__`` order.  The trusted builders
    ``_make`` and ``prequant._make_op``, and ``ChartSpec.__new__``, write slots directly.
    """

    __slots__ = ()

    def __init__(self, *values):
        slots = self.__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} values, not {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Scalar(_Record):
    """A read-only Gaussian rational ``re + i*im`` with ``Fraction`` parts.

    A record, not a number type: it has no arithmetic and no comparison.
    ``Poly`` does all exact arithmetic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        _Record.__init__(self, re if type(re) is Fraction else Fraction(re),
                         im if type(im) is Fraction else Fraction(im))

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


def _join_terms(parts: list[str]) -> str:
    """Printed terms joined by `` + ``, or by `` - `` in place of a leading minus; "0" if none."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class ChartSpec(_Record):
    """A single cotangent chart with n canonically paired coordinates.

    ``pairs[i] = (alpha_i, beta_i)`` names the i-th momentum/position pair.
    Polynomial variables are ordered ``(hbar, alpha_1..alpha_n,
    beta_1..beta_n)``; covector and vector components follow the same
    coordinate order.  There is one chart object per ``pairs``: construction
    returns the chart already made for them, so equality is identity, and
    the hash is ``hash(pairs)``.
    """

    __slots__ = ("pairs", "__dict__")  # __dict__ holds the cached names and key layout
    _charts: dict = {}  # pairs -> the one chart with them; only valid layouts are stored
    __init__ = object.__init__  # not _Record's: __new__ did the work, and pairs= may be a keyword

    def __new__(cls, pairs: tuple[tuple[str, str], ...]):
        chart = cls._charts.get(pairs)
        if chart is None:
            if len(pairs) < 1:
                raise ChartError("chart needs at least one coordinate pair")
            names = [n for p in pairs for n in p]
            if len(set(names)) != len(names) or "hbar" in names:
                raise ChartError("coordinate labels must be distinct and not 'hbar'")
            chart = cls._charts[pairs] = object.__new__(cls)
            object.__setattr__(chart, "pairs", pairs)
        return chart

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"ChartSpec(pairs={self.pairs!r})"

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

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        """Bit offset of each variable's field in a packed key, hbar's (the top field) first."""
        last = 2 * len(self.pairs)
        return tuple(FIELD_BITS * (last - v) for v in range(last + 1))

    @cached_property
    def top(self) -> int:
        """The top bit of every coordinate field: a key with one set has an exponent too large."""
        return sum(1 << (s + FIELD_BITS - 1) for s in self.shifts[1:])

    @cached_property
    def _zero(self) -> "Poly":
        """The chart's one zero Poly: Polys are immutable, so every empty result shares it."""
        return _make(self, {}, 1)

    def coord_index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise ChartError(f"unknown coordinate {name!r} on chart {self.coords}") from None

    def var_index(self, name: str) -> int:
        if name == "hbar":
            return 0
        return 1 + self.coord_index(name)


def standard_chart(n: int = 1) -> ChartSpec:
    """Chart with coordinates p1..pn and q1..qn."""
    return ChartSpec(tuple((f"p{i}", f"q{i}") for i in range(1, n + 1)))


class Poly(_Record):
    """Exact multivariate polynomial over the Gaussian rationals.

    ``nums`` maps a packed exponent key (see the module docstring) to a
    nonzero Gaussian-integer numerator ``(re, im)``; every coefficient shares
    the positive denominator ``den``.  The pair is kept in the normal form
    ``gcd(every re, every im, den) == 1`` (``den == 1`` for the zero Poly),
    so Polys over the same chart compare equal iff ``nums`` and ``den`` are
    equal.  Every exact operation on coefficients is a Poly operation.  The
    constructor takes exponent tuples over ``chart.variables``, each
    coordinate exponent below ``EXP_LIMIT`` (32768); ``terms`` is the
    read-only ``{exponent tuple: Scalar}`` view.
    """

    __slots__ = ("chart", "nums", "den")

    def __init__(
        self,
        chart: ChartSpec,
        terms: Mapping[tuple[int, ...], Scalar | RationalLike] | None = None,
    ):
        nv = len(chart.variables)
        pieces = []
        for exp, c in (terms or {}).items():
            re, im, d = _gaussian(c)
            if not (re or im):
                continue
            exp = tuple(exp)
            if len(exp) != nv or any(e < 0 for e in exp):
                raise ChartError(f"bad exponent tuple {exp} for chart with {nv} variables")
            if any(e >= EXP_LIMIT for e in exp[1:]):
                raise ChartError(f"exponent tuple {exp}: {_OVERFLOW}")
            pieces.append((1, {sum(map(_lshift, exp, chart.shifts)): (re, im)}, d))
        p = _sum(chart, pieces)
        _Record.__init__(self, chart, p.nums, p.den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: ChartSpec) -> "Poly":
        return chart._zero

    @staticmethod
    def const(chart: ChartSpec, c: Scalar | RationalLike) -> "Poly":
        re, im, d = _gaussian(c)
        if not (re or im):
            return chart._zero
        return _make(chart, {0: (re, im)}, d)

    @staticmethod
    def var(chart: ChartSpec, name: str) -> "Poly":
        return _make(chart, {1 << chart.shifts[chart.var_index(name)]: (1, 0)}, 1)

    @staticmethod
    def hbar(chart: ChartSpec) -> "Poly":
        return Poly.var(chart, "hbar")

    @staticmethod
    def minus_i_hbar(chart: ChartSpec) -> "Poly":
        """-i*hbar, the factor of op(A)'s first-order part and of every commutator."""
        return _make(chart, {1 << chart.shifts[0]: (0, -1)}, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """The coefficients as Scalars keyed by exponent tuples, built on each access."""
        den = self.den
        return dict(
            zip(
                _unpack(self.chart, self.nums),
                [Scalar(Fraction(re, den), Fraction(im, den)) for re, im in self.nums.values()],
            )
        )

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return not any(self.nums)  # the constant monomial's key is 0

    def constant_value(self) -> Scalar:
        if not self.nums:
            return Scalar()
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        ((re, im),) = self.nums.values()
        return Scalar(Fraction(re, self.den), Fraction(im, self.den))

    def depends_on(self, name: str) -> bool:
        i = self.chart.var_index(name)
        return any(exp[i] for exp in _unpack(self.chart, self.nums))

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction, Scalar)):
                other = Poly.const(self.chart, other)
            else:
                return NotImplemented
        return self.den == other.den and self.nums == other.nums and self.chart is other.chart

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.nums.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.chart is not self.chart:
                raise ChartError("chart mismatch in Poly arithmetic")
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return Poly.const(self.chart, other)
        raise TypeError(f"cannot combine Poly with {type(other).__name__}")

    def __add__(self, other):
        if type(other) is not Poly or other.chart is not self.chart:
            other = self._coerce(other)
        if not other.nums or not self.nums:
            return self if self.nums else other
        return _sum(self.chart, ((1, self.nums, self.den), (1, other.nums, other.den)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.chart, {e: (-re, -im) for e, (re, im) in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return _sum(self.chart, ((1, self.nums, self.den), (-1, other.nums, other.den)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Poly or other.chart is not self.chart:
            other = self._coerce(other)
        for p, u in ((self, other), (other, self)):
            if u.den == 1 and len(u.nums) == 1:
                ((eu, (ur, ui)),) = u.nums.items()
                if abs(ur) + abs(ui) == 1:  # a unit monomial: shift and rotate, no gcd pass
                    nums = {
                        e + eu: (re * ur - im * ui, re * ui + im * ur)
                        for e, (re, im) in p.nums.items()
                    }
                    if any(map(self.chart.top.__and__, nums)):
                        raise ChartError(_OVERFLOW)
                    return _make(self.chart, nums, p.den)
        return _sum_products(self.chart, ((1, self, other),))

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
        return self * Poly.const(self.chart, c)

    def times_minus_i_hbar(self) -> "Poly":
        """Exact product with -i*hbar: one more hbar, (re + i*im) * -i = im - i*re; no gcd pass."""
        h = 1 << self.chart.shifts[0]
        return _make(self.chart, {e + h: (im, -re) for e, (re, im) in self.nums.items()}, self.den)

    def div_minus_i_hbar(self) -> "Poly":
        """Exact division by -i*hbar; raises if any term lacks an hbar factor."""
        h = 1 << self.chart.shifts[0]
        nums = {}
        for e, (re, im) in self.nums.items():
            if e < h:  # hbar's field is on top, so a key below h has no hbar
                raise ValueError("polynomial is not divisible by hbar")
            nums[e - h] = (-im, re)  # (re + i*im) * i
        return _make(self.chart, nums, self.den)

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "Poly":
        """Exact partial derivative with respect to a coordinate or hbar."""
        return self._partial(self.chart.var_index(name))

    def _partial(self, i: int) -> "Poly":
        """First partial derivative by the variable at index ``i`` of ``chart.variables``."""
        u, nums = 1 << self.chart.shifts[i], {}
        for (e, (re, im)), exp in zip(self.nums.items(), _unpack(self.chart, self.nums)):
            if m := exp[i]:
                nums[e - u] = (re * m, im * m)
        return _normal(self.chart, nums, self.den)

    def substitute(self, new_chart: ChartSpec, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Substitute every chart coordinate by a Poly over ``new_chart``.

        ``hbar`` maps to the new chart's hbar automatically.  Each term's
        image is a chain of one-term ``_sum_raw_products`` over its own
        denominator; the images are summed by ``_sum`` and normalised once.
        """
        images = [Poly.hbar(new_chart)]
        for name in self.chart.coords:
            if name not in mapping:
                raise ChartError(f"substitution missing coordinate {name!r}")
            img = mapping[name]
            if img.chart is not new_chart:
                raise ChartError("substitution image lives on the wrong chart")
            images.append(img)
        powers = [[img] for img in images]  # powers[i][k - 1] == images[i] ** k
        pieces = []
        for c, exp in zip(self.nums.values(), _unpack(self.chart, self.nums)):
            nums, den = {0: c}, self.den
            for pw, k in zip(powers, exp):
                if k:
                    while len(pw) < k:
                        pw.append(pw[-1] * pw[0])
                    nums = _sum_raw_products(new_chart, [(1, nums, pw[k - 1].nums, 1)]).nums
                    den *= pw[k - 1].den
            pieces.append((1, nums, den))
        return _sum(new_chart, pieces)

    def evaluate(self, values: Mapping[str, complex], hbar: complex = 1.0) -> complex:
        """Float shadow: evaluate at complex coordinate values."""
        vals = [complex(hbar)] + [complex(values[name]) for name in self.chart.coords]
        den = self.den
        total = 0j
        for (re, im), exp in zip(self.nums.values(), _unpack(self.chart, self.nums)):
            t = complex(re / den, im / den)
            for v, k in zip(vals, exp):
                if k:
                    t *= v**k
            total += t
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self):
        names = self.chart.variables
        den = self.den
        units = {(den, 0): "", (-den, 0): "-", (0, den): "i*", (0, -den): "-i*"}
        parts = []
        keys = sorted(self.nums)  # packed keys sort as their exponent tuples
        for e, exp in zip(keys, _unpack(self.chart, keys)):
            re, im = self.nums[e]
            mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, exp) if k)
            cs = _gaussian_str(re, im, den)
            if not mono:
                parts.append(cs)
            elif (re, im) in units:
                parts.append(units[re, im] + mono)
            else:
                if "/" in cs and not cs.startswith("("):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return _join_terms(parts)

    def __repr__(self):
        return f"Poly({self})"


_new = object.__new__
_set_chart = Poly.chart.__set__
_set_nums = Poly.nums.__set__
_set_den = Poly.den.__set__


def _unpack(chart: ChartSpec, keys: Iterable[int]) -> list[tuple[int, ...]]:
    """The exponent tuple of each packed key: hbar's top field, then the coordinate fields."""
    fields = struct.Struct(f">{2 * chart.n}H")  # FIELD_BITS == 16: one "H" per coordinate
    unpack, size = fields.unpack, fields.size
    return [
        (hbar, *unpack(low.to_bytes(size, "big")))
        for hbar, low in map(divmod, keys, repeat(1 << chart.shifts[0]))
    ]


def _make(chart: ChartSpec, nums: dict, den: int) -> Poly:
    """A Poly from data already in normal form with no zero numerators."""
    p = _new(Poly)
    _set_chart(p, chart)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


def _normal(chart: ChartSpec, nums: dict, den: int) -> Poly:
    """A Poly from nonzero numerators over a positive ``den``, their common gcd divided out."""
    if not nums:
        return chart._zero
    if den != 1:
        g = den
        for re, im in nums.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            nums = {e: (re // g, im // g) for e, (re, im) in nums.items()}
            den //= g
    return _make(chart, nums, den)


def _sum(chart: ChartSpec, pieces: Iterable[tuple[int, dict, int]]) -> Poly:
    """The sum of ``k * nums / den`` over ``(k, nums, den)``: each piece times the constant 1."""
    return _sum_raw_products(chart, [(k, nums, _ONE, d) for k, nums, d in pieces if nums])


def _add_product(acc: dict, n1: dict, n2: dict, f: int) -> dict:
    """Add ``f * n1 * n2`` into the numerator map ``acc``; entries may cancel to (0, 0)."""
    get = acc.get
    for e1, (a, b) in n1.items():
        if f != 1:
            a, b = a * f, b * f
        for e2, (c, d) in n2.items():
            e = e1 + e2
            old = get(e)
            if old is None:
                acc[e] = (a * c - b * d, a * d + b * c)
            else:
                acc[e] = (old[0] + a * c - b * d, old[1] + a * d + b * c)
    return acc


def _sum_products(chart: ChartSpec, triples: Iterable[tuple[int, Poly, Poly]]) -> Poly:
    """The sum of ``k * p * q`` over ``(k, p, q)``, on one common denominator, normalised once."""
    terms = [(k, p.nums, q.nums, p.den * q.den) for k, p, q in triples if k and p.nums and q.nums]
    return _sum_raw_products(chart, terms)


def _sum_derivations(chart: ChartSpec, quads: Iterable[tuple[int, Poly, int, Poly]]) -> Poly:
    """The sum of ``k * p * dq/dx_i`` over ``(k, p, i, q)``; each dq is raw numerators, no Poly."""
    shifts, terms = chart.shifts, []
    for k, p, i, q in quads:
        if not (k and p.nums):
            continue
        s, mask, dq = shifts[i], _FIELD_MASK if i else -1, {}  # hbar's top field has no mask
        u = 1 << s
        for e, (re, im) in q.nums.items():
            if m := (e >> s) & mask:
                dq[e - u] = (re * m, im * m)
        if dq:
            terms.append((k, p.nums, dq, p.den * q.den))
    return _sum_raw_products(chart, terms)


def _sum_raw_products(chart: ChartSpec, terms: list[tuple[int, dict, dict, int]]) -> Poly:
    """The sum of ``k * n1 * n2 / d`` over ``(k, n1, n2, d)``, ``k``, ``n1`` and ``n2`` nonzero.

    One term is its own common denominator: ``d`` is the denominator and ``k`` the factor.
    """
    if not terms:
        return chart._zero
    if len(terms) == 1:
        ((k, n1, n2, den),) = terms
        acc = _add_product({}, n1, n2, k)
        count = len(n1) * len(n2)
    else:
        den = lcm(*[t[3] for t in terms])
        acc = {}
        for k, n1, n2, d in terms:
            _add_product(acc, n1, n2, k * (den // d))
        count = sum([len(n1) * len(n2) for _, n1, n2, _ in terms])
    if len(acc) < count:  # an exponent recurred
        acc = {e: v for e, v in acc.items() if v[0] or v[1]}
    if any(map(chart.top.__and__, acc)):
        raise ChartError(_OVERFLOW)
    return _normal(chart, acc, den)


class OneForm(_Record):
    """A one-form: one coefficient Poly per coordinate, over (d alpha_1..d alpha_n, d beta_1..)."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: ChartSpec, comps: Iterable[Poly]):
        comps = tuple(comps)
        if len(comps) != 2 * chart.n:
            raise ChartError("one-form needs 2n coefficient polynomials")
        for c in comps:
            if c.chart is not chart:
                raise ChartError("one-form coefficient on the wrong chart")
        _Record.__init__(self, chart, comps)

    def __eq__(self, other):
        return type(other) is OneForm and self.chart is other.chart and self.comps == other.comps

    def __add__(self, other):
        if other.chart is not self.chart:
            raise ChartError("chart mismatch")
        return OneForm(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    @staticmethod
    def from_dict(chart: ChartSpec, entries: Mapping[str, Poly]) -> "OneForm":
        comps = [Poly.zero(chart)] * (2 * chart.n)
        for basis, coeff in entries.items():
            if not basis.startswith("d"):
                raise ChartError(f"covector name {basis!r} must start with 'd'")
            comps[chart.coord_index(basis[1:])] = coeff
        return OneForm(chart, comps)

    def scale(self, p: Poly | Scalar | RationalLike) -> "OneForm":
        return OneForm(self.chart, [a * p for a in self.comps])


class TwoForm(_Record):
    """A two-form stored on the canonical ordered basis dx_i ^ dx_j, i < j."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: ChartSpec, comps: Mapping[tuple[int, int], Poly] | None = None):
        clean: dict[tuple[int, int], Poly] = {}
        for (i, j), p in (comps or {}).items():
            if not (0 <= i < j < 2 * chart.n):
                raise ChartError(f"two-form index pair {(i, j)} not in canonical order")
            if p.chart is not chart:
                raise ChartError("two-form coefficient on the wrong chart")
            if not p.is_zero():
                clean[(i, j)] = p
        _Record.__init__(self, chart, clean)

    def component(self, i: int, j: int) -> Poly:
        """Coefficient of dx_i ^ dx_j for any index order (antisymmetry built in)."""
        if i == j:
            return Poly.zero(self.chart)
        if i < j:
            return self.comps.get((i, j), Poly.zero(self.chart))
        return -self.comps.get((j, i), Poly.zero(self.chart))

    def __eq__(self, other):
        return type(other) is TwoForm and self.chart is other.chart and self.comps == other.comps

    def __hash__(self):
        return hash((self.chart, frozenset(self.comps.items())))

    def __add__(self, other):
        if other.chart is not self.chart:
            raise ChartError("chart mismatch")
        out = dict(self.comps)
        for k, p in other.comps.items():
            out[k] = out.get(k, Poly.zero(self.chart)) + p
        return TwoForm(self.chart, out)

    def is_zero(self) -> bool:
        return not self.comps

    def _pair_raw(self, x: list, y: list) -> Poly:
        """The form on two fields of raw ``(nums, den)`` maps, in one sum of products.

        A real constant coefficient goes into each term's multiplier and
        denominator; any other c is multiplied into x[a] first.
        """
        chart, terms = self.chart, []
        for (i, j), c in self.comps.items():
            real = c.nums.keys() == {0} and not c.nums[0][1]
            for k, a, b in ((1, i, j), (-1, j, i)):
                if x[a][0] and y[b][0]:
                    d = c.den * x[a][1] * y[b][1]
                    if real:
                        terms.append((k * c.nums[0][0], x[a][0], y[b][0], d))
                    else:  # c*x[a] over 1, cancelled, checked before y[b] can carry
                        cx = _sum_raw_products(chart, [(1, c.nums, x[a][0], 1)]).nums
                        terms.append((k, cx, y[b][0], d))
        return _sum_raw_products(chart, terms)

    def _pair_beta(self, x: list, i: int) -> Poly:
        """``_pair_raw(x, X_{beta_i})`` as one column read, in one sum of products.

        X_{beta_i} is the constant field ``sign * d/dx_t``, with ``t`` and
        ``sign`` read from beta_i's row of ``_field_table``, so only the
        form's column ``t`` pairs: ``sign * (sum_a c_{a,t} x[a] - sum_b c_{t,b} x[b])``.
        """
        chart = self.chart
        _, _, t, sign = _field_table(chart)[chart.n + i]
        terms = []
        for (a, b), c in self.comps.items():
            if t in (a, b):
                k, s = (sign, a) if b == t else (-sign, b)
                if x[s][0]:
                    terms.append((k, c.nums, x[s][0], c.den * x[s][1]))
        return _sum_raw_products(chart, terms)

    def __str__(self):
        names = [f"d{c}" for c in self.chart.coords]
        parts = [f"({p})*{names[i]}^{names[j]}" for (i, j), p in sorted(self.comps.items())]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class SmoothMap(_Record):
    """Polynomial map between charts: one source-chart Poly per target coordinate."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source: ChartSpec, target: ChartSpec, comps: Iterable[Poly]):
        comps = tuple(comps)
        if len(comps) != 2 * target.n:
            raise ChartError("map needs one component per target coordinate")
        for c in comps:
            if c.chart is not source:
                raise ChartError("map components must live on the source chart")
        _Record.__init__(self, source, target, comps)

    def mapping(self) -> dict[str, Poly]:
        return dict(zip(self.target.coords, self.comps))


# -- operations --------------------------------------------------------------


@cache
def _field_table(chart: ChartSpec) -> tuple[tuple[int, int, int, int], ...]:
    """X_A's layout on ``chart``, built once per chart: the package's sign convention.

    One ``(shift, unit, target, sign)`` row per coordinate: the coordinate's
    field offset and ``1 << shift`` in a packed key, and where dA/dx goes.
    dA/dalpha_i is the d/dbeta_i component (sign +1) and dA/dbeta_i, negated,
    the d/dalpha_i component (sign -1).
    """
    n, shifts = chart.n, chart.shifts
    alphas = [(shifts[1 + i], 1 << shifts[1 + i], n + i, 1) for i in range(n)]
    betas = [(shifts[1 + n + i], 1 << shifts[1 + n + i], i, -1) for i in range(n)]
    return (*alphas, *betas)


def _hamiltonian_raw(A: Poly) -> list[tuple[dict, int]]:
    """X_A as 2n ``(nums, A.den)`` maps, not normalised, laid out by ``_field_table``."""
    comps = [{} for _ in range(2 * A.chart.n)]
    table = _field_table(A.chart)
    for e, (re, im) in A.nums.items():  # one pass over A's terms
        for s, u, j, sign in table:
            if m := (e >> s) & _FIELD_MASK:
                m *= sign
                comps[j][e - u] = (re * m, im * m)
    return [(c, A.den) for c in comps]


def poisson(A: Poly, B: Poly) -> Poly:
    """{A, B} = omega(X_A, X_B), read from the two raw Hamiltonian fields."""
    if A.chart is not B.chart:
        raise ChartError("chart mismatch in Poisson bracket")
    return standard_symplectic(A.chart)._pair_raw(_hamiltonian_raw(A), _hamiltonian_raw(B))


def exterior_d(phi: Union[Poly, OneForm]) -> Union[OneForm, TwoForm]:
    """Exterior derivative of a 0-form (Poly) or a one-form."""
    if isinstance(phi, Poly):
        chart = phi.chart
        return OneForm(chart, [phi._partial(1 + i) for i in range(2 * chart.n)])
    if isinstance(phi, OneForm):
        chart = phi.chart
        comps: dict[tuple[int, int], Poly] = {}
        for i in range(2 * chart.n):
            for j in range(i + 1, 2 * chart.n):
                comps[(i, j)] = phi.comps[j]._partial(1 + i) - phi.comps[i]._partial(1 + j)
        return TwoForm(chart, comps)
    raise TypeError("exterior_d expects a Poly or a OneForm")


@cache
def standard_symplectic(chart: ChartSpec) -> TwoForm:
    """omega = sum_i dalpha_i ^ dbeta_i, the one statement of omega; built once per chart."""
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


def pullback_form(m: SmoothMap, phi: Union[Poly, OneForm]) -> Union[Poly, OneForm]:
    """Pullback of a function or one-form along a polynomial map."""
    src, tgt = m.source, m.target
    mapping = m.mapping()
    if not isinstance(phi, (Poly, OneForm)):
        raise TypeError("pullback_form expects a Poly or a OneForm")
    if phi.chart is not tgt:
        raise ChartError("pullback argument must live on the target chart")
    if isinstance(phi, Poly):
        return phi.substitute(src, mapping)
    pulled = [
        (coeff.substitute(src, mapping), exterior_d(comp).comps)
        for comp, coeff in zip(m.comps, phi.comps)
        if coeff.nums
    ]
    return OneForm(
        src, [_sum_products(src, [(1, p, d[j]) for p, d in pulled]) for j in range(2 * src.n)]
    )

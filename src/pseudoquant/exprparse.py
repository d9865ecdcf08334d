"""Infix expression grammar for exact polynomials, plus JSON problem files.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?          # right-associative exponent
    atom   := NUMBER | NAME | '(' expr ')'

NAME is ``hbar``, the imaginary unit ``i`` or a chart coordinate; NUMBER is
a non-negative integer or decimal literal of ASCII digits (decimals become
exact fractions).  Division is restricted to nonzero constant divisors and
exponents to non-negative integer constants, keeping every result an exact
polynomial.  The whole expression is estimated before it is evaluated: each
operation carries an upper estimate (``_Node``) of its terms, coefficient
bits and work in term products up the parse tree, and one whose estimate
passes ``TERMS_MAX`` terms or ``BITS_MAX`` bits, or whose expression passes
``WORK_MAX`` term products, is refused at its operator's column, and so is
a '(', unary sign or '^' exponent that opens a level of nesting past
``DEPTH_MAX``.  Syntax errors carry the 1-based source column.

Problem files are JSON objects::

    {
      "chart": {"pairs": [["p1", "q1"], ...]},
      "theta": "standard" | [["<coeff expr>", "dq1"], ...],
      "observables": {"name": "<expr>", ...},
      "pullback": {"target": {"pairs": [...]},
                   "theta": ..., "map": {"<target coord>": "<expr>", ...}}
    }

Every key is optional; any other key is a ChartError naming it, and so is
JSON nested past the depth Python's parser can follow.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

from .prequant import ConnectionData, PullbackSetup
from .symcore import ChartError, ChartSpec, OneForm, Poly, Scalar, SmoothMap, _Record


TERMS_MAX = 10**5  # every operation: at most this many terms, estimated before evaluating
BITS_MAX = 2**11  # every operation: coefficient parts of at most this many bits, estimated
WORK_MAX = 2 * 10**6  # a whole expression: at most this many small term products, estimated
DEPTH_MAX = 100  # nesting: at most this many open '(', unary signs and '^' exponents at once


class ExprSyntaxError(ValueError):
    """Malformed expression; ``column`` is the 1-based offending position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


_OPS = set("+-*/^()")
_NUMBER = set("0123456789.")  # ASCII only: other Unicode digits are unexpected characters


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, 1-based column) triples; kinds: num, name, op, end."""
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        col = pos + 1
        if ch in _OPS:
            tokens.append(("op", ch, col))
            pos += 1
        elif ch in _NUMBER:
            start = pos
            seen_dot = False
            while pos < len(text) and text[pos] in _NUMBER:
                if text[pos] == ".":
                    if seen_dot:
                        raise ExprSyntaxError("malformed number", pos + 1)
                    seen_dot = True
                pos += 1
            lit = text[start:pos]
            if lit == ".":
                raise ExprSyntaxError("malformed number", col)
            tokens.append(("num", lit, col))
        elif ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], col))
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", col)
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Node:
    """A parsed subexpression, not yet evaluated: an upper estimate of its size, and ``build``.

    Its value has at most ``terms`` terms, of total degree at most ``degree``
    in the variables whose indices are the bits set in ``names``, and is
    ``M / den``, where the sum of ``|re| + |im|`` over M's terms is at most
    ``norm``, so that every coefficient part of the normalised Poly has at
    most ``bits`` bits.  Evaluating it costs at most ``work`` small term
    products (``_cost``), its operands' included.  ``build()`` evaluates it.
    """

    __slots__ = ("terms", "degree", "names", "norm", "den", "work", "build")

    def __init__(self, terms, degree, names, norm, den, work, build=None):
        # no more terms than the monomials of degree <= degree in those variables
        self.terms = min(terms, comb(degree + names.bit_count(), degree))
        self.degree, self.names, self.norm, self.den = degree, names, norm, den
        self.work, self.build = work, build

    @property
    def bits(self) -> int:
        return max(self.norm, self.den).bit_length() - 1


def _known(p: Poly, names: int = 0, work: int = 0) -> _Node:
    """A constant, or a variable whose index is the bit set in ``names``: its size is exact."""
    norm = sum([abs(re) + abs(im) for re, im in p.nums.values()])
    return _Node(len(p.nums), int(names > 0), names, norm, p.den, work, lambda: p)


def _cost(t1: int, b1: int, t2: int, b2: int) -> int:
    """Small term products to multiply t1 terms of b1 bits by t2 terms of b2 bits.

    A term product of coefficients with b1 + b2 = 2048 bits costs about five
    small ones, and one of 4096 bits about seventeen, so each counts
    ``1 + ((b1 + b2) // 1024)**2``.
    """
    return t1 * t2 * (1 + ((b1 + b2) >> 10) ** 2)


def _sum(a: _Node, b: _Node) -> _Node:
    """a + b or a - b: M_a * (den / den_a) + M_b * (den / den_b) over den = lcm(den_a, den_b)."""
    den = lcm(a.den, b.den)
    norm = a.norm * (den // a.den) + b.norm * (den // b.den)
    degree, names = max(a.degree, b.degree), a.names | b.names
    return _Node(a.terms + b.terms, degree, names, norm, den, a.work + b.work)


def _product(a: _Node, b: _Node) -> _Node:
    """a * b: M_a * M_b over den_a * den_b, whose norm is at most the product of theirs."""
    work = a.work + b.work + _cost(a.terms, a.bits, b.terms, b.bits)
    degree, names = a.degree + b.degree, a.names | b.names
    return _Node(a.terms * b.terms, degree, names, a.norm * b.norm, a.den * b.den, work)


def _power_terms(t: int, k: int) -> int:
    """C(k + t - 1, t - 1), the terms of a t-term base's k-th power, or past ``TERMS_MAX``.

    C(k + t - 1, r) grows with r up to min(k, t - 1), so the product stops
    once it passes the bound, however large k is.
    """
    if not t:
        return int(k == 0)
    c = 1
    for r in range(1, min(k, t - 1) + 1):
        c = c * (k + t - r) // r
        if c > TERMS_MAX:
            break
    return c


def _power(base: _Node, k: int) -> _Node:
    """base^k: C(k + t - 1, t - 1) terms for a base of t, M^k over den^k, by binary powering.

    A norm or denominator whose bits already pass ``BITS_MAX`` is not
    computed; one just past the bound stands in for it.
    """
    t, d, names = base.terms, base.degree, base.names
    terms = _power_terms(t, k)
    top = max(base.norm, base.den)
    if k * (top.bit_length() - 1) > BITS_MAX:
        return _Node(terms, d * k, names, 2 << BITS_MAX, 1, base.work)
    work, j = base.work, 1  # as Poly.__pow__: square, then multiply by the base on a 1 bit
    for bit in bin(k)[3:] if t else "":
        power = _Node(_power_terms(t, j), d * j, names, top**j, 1, 0)
        work += _cost(power.terms, power.bits, power.terms, power.bits)
        j *= 2
        if bit == "1":
            power = _Node(_power_terms(t, j), d * j, names, top**j, 1, 0)
            work += _cost(power.terms, power.bits, t, base.bits)
            j += 1
    return _Node(terms, d * k, names, base.norm**k, base.den**k, work)


def _checked(node: _Node, what: str, col: int) -> _Node:
    """``node`` if its estimate is within every bound; otherwise the input error for ``what``."""
    if node.terms > TERMS_MAX:
        size = f"{what} gives more than {TERMS_MAX} terms"
    elif node.bits > BITS_MAX:
        size = f"{what} gives coefficients of more than {BITS_MAX} bits"
    elif node.work > WORK_MAX:
        size = f"expression needs more than {WORK_MAX} term products"
    else:
        return node
    hint = "use a smaller exponent" if what == "power" else "use smaller operands"
    raise ExprSyntaxError(f"{size}; {hint}", col)


def _chain(first: _Node, rest: list[tuple[str, _Node]], est: _Node) -> _Node:
    """``est``, whose ``build`` folds ``first`` and ``rest``'s ``(op, node)`` left to right."""

    def build() -> Poly:
        p = first.build()
        for op, node in rest:
            q = node.build()
            p = p + q if op == "+" else p - q if op == "-" else p * q
        return p

    est.build = build if rest else first.build
    return est


class _Parser:
    """Recursive descent that estimates every operation before anything is evaluated.

    Each method returns a ``_Node``; an operation whose estimate passes a
    bound (``_checked``) is refused at its operator's column.  Only exponents
    and divisors, which must be constants, are built while parsing.
    """

    def __init__(self, text: str, chart: ChartSpec):
        self.tokens = _tokenize(text)
        self.chart = chart
        self.k = 0
        self.depth = 0

    def nested(self, parse, col: int) -> _Node:
        """``parse()`` one level deeper; a level past ``DEPTH_MAX`` is refused at ``col``."""
        if self.depth == DEPTH_MAX:
            raise ExprSyntaxError(f"expression nests more than {DEPTH_MAX} levels", col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, col = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", col)
        return self.advance()

    def parse(self) -> _Node:
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {val!r}", col)
        return node

    def expr(self) -> _Node:
        first = est = self.term()
        rest = []
        while True:
            kind, val, col = self.peek()
            if kind != "op" or val not in "+-":
                return _chain(first, rest, est)
            self.advance()
            rhs = self.term()
            est = _checked(_sum(est, rhs), "sum", col)
            rest.append((val, rhs))

    def term(self) -> _Node:
        first = est = self.unary()
        rest = []
        while True:
            kind, val, col = self.peek()
            if kind != "op" or val not in "*/":
                return _chain(first, rest, est)
            self.advance()
            rhs = self.unary()
            if val == "/":
                c = rhs.build()
                if not c.is_constant() or c.is_zero():
                    raise ExprSyntaxError("division is only defined by nonzero constants", col)
                c = c.constant_value()
                norm = c.re * c.re + c.im * c.im  # exact reciprocal (re - i*im)/norm
                rhs = _known(Poly.const(self.chart, Scalar(c.re / norm, -c.im / norm)), 0, rhs.work)
            est = _checked(_product(est, rhs), "product", col)
            rest.append(("*", rhs))

    def unary(self) -> _Node:
        kind, val, col = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            node = self.nested(self.unary, col)
            if val == "+":
                return node
            neg = _Node(node.terms, node.degree, node.names, node.norm, node.den, node.work)
            neg.build = lambda: -node.build()
            return neg
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        kind, val, col = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            expo = self.nested(self.unary, col)
            e = expo.build()
            if not e.is_constant():
                raise ExprSyntaxError("exponent must be a constant", col)
            c = e.constant_value()
            if c.im or c.re.denominator != 1 or c.re < 0:
                raise ExprSyntaxError("exponent must be a non-negative integer", col)
            k = int(c.re)
            node = _power(base, k)
            node.work += expo.work
            node.build = lambda: base.build() ** k
            return _checked(node, "power", col)
        return base

    def atom(self) -> _Node:
        kind, val, col = self.advance()
        if kind == "num":
            if "." in val:
                return _known(Poly.const(self.chart, Fraction(val)))
            return _known(Poly.const(self.chart, int(val)))
        if kind == "name":
            if val == "i":
                return _known(Poly.const(self.chart, Scalar(0, 1)))
            try:
                return _known(Poly.var(self.chart, val), 1 << self.chart.var_index(val))
            except ChartError:
                raise ExprSyntaxError(f"unknown symbol {val!r}", col) from None
        if kind == "op" and val == "(":
            node = self.nested(self.expr, col)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", col)


def parse_poly(text: str, chart: ChartSpec) -> Poly:
    """Parse an infix expression into an exact Poly over the chart, estimating before evaluating."""
    return _Parser(text, chart).parse().build()


def parse_one_form(entries, chart: ChartSpec) -> OneForm:
    """One-form from [[coeff-expr, basis-covector], ...] pairs."""
    if entries == "standard":
        from .symcore import standard_potential

        return standard_potential(chart)
    if not isinstance(entries, (list, tuple)):
        raise ChartError("'theta' must be \"standard\" or a list of [coefficient, basis] pairs")
    comps = {}
    for item in entries:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ChartError("'theta' entries must be [coefficient, basis] pairs")
        coeff, basis = item
        if not isinstance(basis, str) or not basis.startswith("d"):
            raise ChartError(f"covector name {basis!r} must look like 'dq1'")
        comps[basis] = comps.get(basis, Poly.zero(chart)) + parse_poly(str(coeff), chart)
    return OneForm.from_dict(chart, comps)


# -- problem files -------------------------------------------------------------


class ProblemFile(_Record):
    """Parsed problem: chart, connection, named observables, optional pullback."""

    __slots__ = ("chart", "connection", "observables", "pullback")

    def __init__(
        self, chart: ChartSpec, connection: ConnectionData, observables: dict[str, Poly],
        pullback: PullbackSetup | None = None,
    ):
        _Record.__init__(self, chart, connection, observables, pullback)


def _object(value, key: str) -> dict:
    """``value`` if it is a JSON object; a ChartError naming ``key`` otherwise."""
    if not isinstance(value, dict):
        raise ChartError(f"'{key}' must be a JSON object")
    return value


def _known_keys(block: dict, allowed: tuple[str, ...], prefix: str) -> None:
    """A ChartError naming the first key of ``block`` that is not in ``allowed``."""
    for key in block:
        if key not in allowed:
            raise ChartError(
                f"unknown problem-file key '{prefix}{key}' (expected {', '.join(allowed)})"
            )


def _chart_from_dict(data, key: str) -> ChartSpec:
    pairs = _object(data, key).get("pairs")
    if not pairs or not isinstance(pairs, list):
        raise ChartError(f"'{key}' needs a non-empty 'pairs' list")
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ChartError(f"'{key}.pairs' must be [momentum, position] name pairs")
    return ChartSpec(tuple((str(a), str(b)) for a, b in pairs))


def load_problem(source) -> ProblemFile:
    """Build a ProblemFile from a dict, JSON object text, or a path to a JSON file."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            is_file = Path(str(source)).exists()
        except OSError:
            is_file = False
        if is_file:
            text = Path(str(source)).read_text()
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            raise FileNotFoundError(f"no such file: {source}")
        try:
            data = json.loads(text)
        except RecursionError:
            raise ChartError("the problem file nests too deeply") from None
    if not isinstance(data, dict):
        raise ChartError("a problem file must hold a JSON object")
    _known_keys(data, ("chart", "theta", "observables", "pullback"), "")
    chart = _chart_from_dict(data.get("chart", {"pairs": [["p1", "q1"]]}), "chart")
    theta = parse_one_form(data.get("theta", "standard"), chart)
    conn = ConnectionData(theta)
    observables = {
        name: parse_poly(str(expr), chart)
        for name, expr in _object(data.get("observables", {}), "observables").items()
    }
    pullback = None
    if "pullback" in data:
        pb = _object(data["pullback"], "pullback")
        _known_keys(pb, ("target", "theta", "map"), "pullback.")
        target = _chart_from_dict(pb.get("target"), "pullback.target")
        target_theta = parse_one_form(pb.get("theta", "standard"), target)
        mapping = _object(pb.get("map", {}), "pullback.map")
        comps = []
        for coord in target.coords:
            if coord not in mapping:
                raise ChartError(f"pullback map missing target coordinate {coord!r}")
            comps.append(parse_poly(str(mapping[coord]), chart))
        pullback = PullbackSetup(SmoothMap(chart, target, comps), ConnectionData(target_theta))
    return ProblemFile(chart, conn, observables, pullback)


__all__ = [
    "ExprSyntaxError",
    "ProblemFile",
    "load_problem",
    "parse_one_form",
    "parse_poly",
]

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
polynomial.  A power whose estimated result passes ``POWER_TERMS_MAX``
terms or ``POWER_BITS_MAX`` coefficient bits is refused before it is
evaluated.  Syntax errors carry the 1-based source column.

Problem files are JSON objects::

    {
      "chart": {"pairs": [["p1", "q1"], ...]},
      "theta": "standard" | [["<coeff expr>", "dq1"], ...],
      "observables": {"name": "<expr>", ...},
      "pullback": {"target": {"pairs": [...]},
                   "theta": ..., "map": {"<target coord>": "<expr>", ...}}
    }

Every key is optional; any other key is a ChartError naming it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from pathlib import Path

from .prequant import ConnectionData, PullbackSetup
from .symcore import ChartError, ChartSpec, OneForm, Poly, Scalar, SmoothMap, _Record


POWER_TERMS_MAX = 10**5  # base^k: at most this many terms, estimated before evaluating
POWER_BITS_MAX = 2**11  # base^k: coefficient parts of at most this many bits, estimated


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


def _check_power(base: Poly, k: int, col: int) -> None:
    """Refuse ``base^k`` before evaluating it if its estimated size passes a bound.

    A base of t terms gives at most C(k + t - 1, t - 1) terms; its coefficient
    height grows by about k * log2(t * h) bits, with h the largest
    ``|re| + |im|`` numerator or the denominator.
    """
    t = len(base.nums)
    h = max([abs(re) + abs(im) for re, im in base.nums.values()], default=0)
    if t > 1 and comb(k + t - 1, t - 1) > POWER_TERMS_MAX:
        size = f"more than {POWER_TERMS_MAX} terms"
    elif k * ((t * max(h, base.den)).bit_length() - 1) > POWER_BITS_MAX:
        size = f"coefficients of more than {POWER_BITS_MAX} bits"
    else:
        return
    raise ExprSyntaxError(f"power gives {size}; use a smaller exponent", col)


class _Parser:
    def __init__(self, text: str, chart: ChartSpec):
        self.tokens = _tokenize(text)
        self.chart = chart
        self.k = 0

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

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {val!r}", col)
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                p = p + rhs if val == "+" else p - rhs
            else:
                return p

    def term(self) -> Poly:
        p = self.unary()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                if val == "*":
                    p = p * rhs
                else:
                    if not rhs.is_constant() or rhs.is_zero():
                        raise ExprSyntaxError(
                            "division is only defined by nonzero constants", col
                        )
                    c = rhs.constant_value()
                    norm = c.re * c.re + c.im * c.im  # exact reciprocal (re - i*im)/norm
                    p = p.scale(Scalar(c.re / norm, -c.im / norm))
            else:
                return p

    def unary(self) -> Poly:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            p = self.unary()
            return -p if val == "-" else p
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        kind, val, col = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            expo = self.unary()
            if not expo.is_constant():
                raise ExprSyntaxError("exponent must be a constant", col)
            c = expo.constant_value()
            if c.im or c.re.denominator != 1 or c.re < 0:
                raise ExprSyntaxError("exponent must be a non-negative integer", col)
            k = int(c.re)
            _check_power(base, k, col)
            return base**k
        return base

    def atom(self) -> Poly:
        kind, val, col = self.advance()
        if kind == "num":
            if "." in val:
                return Poly.const(self.chart, Fraction(val))
            return Poly.const(self.chart, int(val))
        if kind == "name":
            if val == "i":
                return Poly.const(self.chart, Scalar(0, 1))
            if val == "hbar":
                return Poly.hbar(self.chart)
            try:
                return Poly.var(self.chart, val)
            except ChartError:
                raise ExprSyntaxError(f"unknown symbol {val!r}", col) from None
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", col)


def parse_poly(text: str, chart: ChartSpec) -> Poly:
    """Parse an infix expression into an exact Poly over the chart."""
    return _Parser(text, chart).parse()


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
        for name, value in zip(self.__slots__, (chart, connection, observables, pullback)):
            object.__setattr__(self, name, value)


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
        data = json.loads(text)
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

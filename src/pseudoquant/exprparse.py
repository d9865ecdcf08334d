"""Infix expression grammar for exact polynomials, plus JSON problem files.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?          # right-associative exponent
    atom   := NUMBER | NAME | '(' expr ')'

NAME is ``hbar``, the imaginary unit ``i`` or a chart coordinate; NUMBER is
a non-negative integer or decimal literal (decimals become exact
fractions).  Division is restricted to nonzero constant divisors and
exponents to non-negative integer constants, keeping every result an exact
polynomial.  Syntax errors carry the 1-based source column.

Problem files are JSON objects::

    {
      "chart": {"pairs": [["p1", "q1"], ...]},
      "theta": "standard" | [["<coeff expr>", "dq1"], ...],
      "observables": {"name": "<expr>", ...},
      "pullback": {"target": {"pairs": [...]},
                   "theta": ..., "map": {"<target coord>": "<expr>", ...}},
      "polarisation": true
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .prequant import ConnectionData, PullbackSetup
from .polarisation import Polarisation
from .symcore import ChartError, ChartSpec, OneForm, Poly, Scalar, SmoothMap


class ExprSyntaxError(ValueError):
    """Malformed expression; ``column`` is the 1-based offending position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


_OPS = set("+-*/^()")


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
        elif ch.isdigit() or ch == ".":
            start = pos
            seen_dot = False
            while pos < len(text) and (text[pos].isdigit() or text[pos] == "."):
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
            return base ** int(c.re)
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
    comps = {}
    for item in entries:
        if len(item) != 2:
            raise ChartError("one-form entries must be [coefficient, basis] pairs")
        coeff, basis = item
        if not isinstance(basis, str) or not basis.startswith("d"):
            raise ChartError(f"covector name {basis!r} must look like 'dq1'")
        poly = coeff if isinstance(coeff, Poly) else parse_poly(str(coeff), chart)
        comps[basis] = comps.get(basis, Poly.zero(chart)) + poly
    return OneForm.from_dict(chart, comps)


def one_form_entries(theta: OneForm) -> list[list[str]]:
    """Serializable [[coeff, basis], ...] view of a one-form."""
    out = []
    for coeff, coord in zip(theta.comps, theta.chart.coords):
        if not coeff.is_zero():
            out.append([str(coeff), f"d{coord}"])
    return out


# -- problem files -------------------------------------------------------------


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem: chart, connection, named observables, optional extras."""

    chart: ChartSpec
    connection: ConnectionData
    observables: dict[str, Poly]
    pullback: PullbackSetup | None = None
    polarisation: Polarisation | None = None


def _chart_from_dict(data) -> ChartSpec:
    pairs = data.get("pairs")
    if not pairs:
        raise ChartError("chart needs a non-empty 'pairs' list")
    return ChartSpec(tuple((str(a), str(b)) for a, b in pairs))


def standard_problem() -> ProblemFile:
    """The default 1-dof chart p1/q1 with the standard potential."""
    chart = ChartSpec((("p1", "q1"),))
    conn = ConnectionData.standard(chart)
    return ProblemFile(chart, conn, {}, None, Polarisation(chart, conn))


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
    chart = _chart_from_dict(data.get("chart", {"pairs": [["p1", "q1"]]}))
    theta = parse_one_form(data.get("theta", "standard"), chart)
    conn = ConnectionData(theta)
    observables = {
        name: parse_poly(str(expr), chart)
        for name, expr in data.get("observables", {}).items()
    }
    pullback = None
    if "pullback" in data:
        pb = data["pullback"]
        target = _chart_from_dict(pb["target"])
        target_theta = parse_one_form(pb.get("theta", "standard"), target)
        mapping = pb.get("map", {})
        comps = []
        for coord in target.coords:
            if coord not in mapping:
                raise ChartError(f"pullback map missing target coordinate {coord!r}")
            comps.append(parse_poly(str(mapping[coord]), chart))
        pullback = PullbackSetup(SmoothMap(chart, target, comps), ConnectionData(target_theta))
    polarisation = None
    if data.get("polarisation"):
        polarisation = Polarisation(chart, conn)
    return ProblemFile(chart, conn, observables, pullback, polarisation)


def dump_problem(problem: ProblemFile) -> dict:
    """Serializable dict that ``load_problem`` parses back to equal objects."""
    data = {
        "chart": {"pairs": [list(p) for p in problem.chart.pairs]},
        "theta": one_form_entries(problem.connection.theta),
        "observables": {name: str(p) for name, p in problem.observables.items()},
    }
    if problem.pullback is not None:
        pb = problem.pullback
        data["pullback"] = {
            "target": {"pairs": [list(p) for p in pb.map.target.pairs]},
            "theta": one_form_entries(pb.target_connection.theta),
            "map": {c: str(p) for c, p in pb.map.mapping().items()},
        }
    if problem.polarisation is not None:
        data["polarisation"] = True
    return data


__all__ = [
    "ExprSyntaxError",
    "ProblemFile",
    "dump_problem",
    "load_problem",
    "one_form_entries",
    "parse_one_form",
    "parse_poly",
    "standard_problem",
]

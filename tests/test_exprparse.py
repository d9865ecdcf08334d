import json
import time
from fractions import Fraction

import pytest

from pseudoquant.exprparse import (
    BITS_MAX,
    TERMS_MAX,
    ExprSyntaxError,
    ProblemFile,
    load_problem,
    parse_one_form,
    parse_poly,
)
from pseudoquant.prequant import ConnectionData
from pseudoquant.symcore import (
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    Scalar,
    standard_chart,
    standard_potential,
)


@pytest.fixture
def chart():
    return ChartSpec((("a1", "b1"),))


class TestParsePoly:
    def test_basic(self, chart):
        alpha, beta = Poly.var(chart, "a1"), Poly.var(chart, "b1")
        got = parse_poly("(1/2)*a1^2 + hbar*b1", chart)
        want = alpha * alpha * Poly.const(chart, Fraction(1, 2)) + Poly.hbar(chart) * beta
        assert got == want

    def test_imaginary_unit_and_decimals(self, chart):
        got = parse_poly("i*a1 - 0.25", chart)
        want = Poly.var(chart, "a1").scale(Scalar(0, 1)) - Poly.const(chart, Fraction(1, 4))
        assert got == want

    def test_unary_and_precedence(self, chart):
        assert parse_poly("-a1^2", chart) == -(Poly.var(chart, "a1") ** 2)
        assert parse_poly("2+3*4", chart) == Poly.const(chart, 14)
        assert parse_poly("(2+3)*4", chart) == Poly.const(chart, 20)

    def test_right_associative_power(self, chart):
        assert parse_poly("a1^2^3", chart) == Poly.var(chart, "a1") ** 8

    def test_str_round_trip(self, chart):
        alpha, beta = Poly.var(chart, "a1"), Poly.var(chart, "b1")
        cases = [
            alpha.scale(Scalar(1, -1)),
            alpha * beta * Poly.hbar(chart).scale(Scalar(Fraction(-3, 2))),
            beta**3 - Poly.const(chart, Fraction(5, 7)),
            Poly.zero(chart),
        ]
        for p in cases:
            assert parse_poly(str(p), chart) == p

    def test_errors_carry_columns(self, chart):
        with pytest.raises(ExprSyntaxError) as e:
            parse_poly("a1 + + ", chart)
        assert e.value.column == 8
        with pytest.raises(ExprSyntaxError) as e:
            parse_poly("a1 $ b1", chart)
        assert e.value.column == 4
        assert "column 4" in str(e.value)
        with pytest.raises(ExprSyntaxError):
            parse_poly("zz + 1", chart)
        with pytest.raises(ExprSyntaxError):
            parse_poly("(a1", chart)
        with pytest.raises(ExprSyntaxError):
            parse_poly("1.2.3", chart)
        with pytest.raises(ExprSyntaxError, match="malformed number") as e:
            parse_poly(".", chart)
        assert e.value.column == 1
        with pytest.raises(ExprSyntaxError, match="unexpected trailing 'b1'") as e:
            parse_poly("a1 b1", chart)
        assert e.value.column == 4

    @pytest.mark.parametrize("text, column", [("\u00b2", 1), ("a1^\u00b2", 4), ("\u0663", 1)])
    def test_numbers_take_ascii_digits_only(self, chart, text, column):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as e:
            parse_poly(text, chart)
        assert e.value.column == column

    def test_names_keep_unicode_labels(self):
        greek = ChartSpec((("\u03c0", "\u03c6"),))
        got = parse_poly("\u03c0^2*\u03c6", greek)
        assert got == Poly.var(greek, "\u03c0") ** 2 * Poly.var(greek, "\u03c6")

    def test_division_rules(self, chart):
        assert parse_poly("a1/2", chart) == Poly.var(chart, "a1").scale(Scalar(Fraction(1, 2)))
        with pytest.raises(ExprSyntaxError):
            parse_poly("a1/b1", chart)
        with pytest.raises(ExprSyntaxError):
            parse_poly("a1/0", chart)

    def test_power_rules(self, chart):
        with pytest.raises(ExprSyntaxError):
            parse_poly("a1^b1", chart)
        with pytest.raises(ExprSyntaxError):
            parse_poly("a1^(1/2)", chart)
        with pytest.raises(ExprSyntaxError):
            parse_poly("a1^-1", chart)

    @pytest.mark.parametrize("text, column, bound", [
        ("2^2049", 2, f"more than {BITS_MAX} bits"),
        ("(1+i)^2049", 6, f"more than {BITS_MAX} bits"),  # |1+i| grows like 2^(k/2)
        ("(1/3*p1)^2049", 9, f"more than {BITS_MAX} bits"),  # the denominator grows too
        ("(p1+q1+p2+q2+p3+q3)^24", 20, f"more than {TERMS_MAX} terms"),  # C(29, 5) terms
    ])
    def test_power_size_is_bounded_before_evaluating(self, monkeypatch, text, column, bound):
        exponents = []
        pow_ = Poly.__pow__
        monkeypatch.setattr(Poly, "__pow__", lambda p, k: exponents.append(k) or pow_(p, k))
        with pytest.raises(ExprSyntaxError, match=bound) as err:
            parse_poly(text, standard_chart(3))
        assert err.value.column == column
        assert exponents == []

    def test_wide_power_is_refused_before_its_binomial(self, chart):
        # C(k + t - 1, t - 1) for a base of t = 90000 terms and k = 10^40 has millions of
        # bits; the term count stops multiplying once it passes the bound
        sums = ["(" + "+".join(f"{x}^{k}" for k in range(1, 301)) + ")" for x in ("a1", "b1")]
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match=f"power gives more than {TERMS_MAX} terms"):
            parse_poly(f"({sums[0]}*{sums[1]})^{10**40}", chart)
        assert time.perf_counter() - start < 5

    def test_power_at_the_bounds_is_evaluated(self, chart):
        assert parse_poly(f"2^{BITS_MAX}", chart) == Poly.const(chart, 2**BITS_MAX)
        assert parse_poly("a1^32767*hbar^140000", chart).terms  # unit monomials have 0-bit height
        # a sum of constants is one term, and so is a power of a1's multiples: without the
        # monomial count the four terms of the base would estimate C(103, 3) > 10^5 terms
        assert parse_poly("(1+1+1)^1292", chart) == Poly.const(chart, 3**1292)
        a1 = Poly.var(chart, "a1")
        assert parse_poly("(a1+2*a1+3*a1+4*a1)^100", chart) == (a1 * 10) ** 100


class TestOneForm:
    def test_standard_keyword(self, chart):
        assert parse_one_form("standard", chart) == standard_potential(chart)

    def test_entries_round_trip(self, chart):
        theta = OneForm.from_dict(
            chart, {"db1": Poly.var(chart, "a1") ** 2, "da1": Poly.const(chart, 3)}
        )
        assert parse_one_form([["a1^2", "db1"], ["3", "da1"]], chart) == theta

    def test_bad_basis_name(self, chart):
        with pytest.raises(ChartError):
            parse_one_form([["a1", "q1"]], chart)
        with pytest.raises(ChartError):
            parse_one_form([["a1"]], chart)


class TestProblemFiles:
    def test_standard_problem(self):
        prob = load_problem({})
        assert prob.chart.coords == ("p1", "q1")
        assert prob.connection.theta == standard_potential(prob.chart)

    def test_optional_blocks_default_to_none(self, chart):
        prob = ProblemFile(chart, ConnectionData.standard(chart), {})
        assert prob.pullback is None
        assert load_problem({"chart": {"pairs": [["a1", "b1"]]}}).pullback is None

    def test_load_dump_load(self):
        data = {
            "chart": {"pairs": [["p1", "q1"]]},
            "theta": "standard",
            "observables": {"H": "(1/2)*p1^2 + q1^2", "lin": "p1 - i*q1"},
            "pullback": {
                "target": {"pairs": [["z", "w"]]},
                "theta": "standard",
                "map": {"z": "2*p1", "w": "q1"},
            },
        }
        prob = load_problem(data)
        p1, q1 = Poly.var(prob.chart, "p1"), Poly.var(prob.chart, "q1")
        assert prob.chart == ChartSpec((("p1", "q1"),))
        assert prob.connection.theta == standard_potential(prob.chart)
        assert prob.observables == {
            "H": p1**2 * Fraction(1, 2) + q1**2, "lin": p1 - q1 * Scalar(0, 1)
        }
        assert prob.pullback.map.target == ChartSpec((("z", "w"),))
        assert prob.pullback.map.comps == (p1 * 2, q1)

    def test_load_from_json_text_and_file(self, tmp_path):
        data = {"chart": {"pairs": [["a1", "b1"]]}, "observables": {"x": "b1^2"}}
        text = json.dumps(data)
        from_text = load_problem(text)
        path = tmp_path / "prob.json"
        path.write_text(text)
        from_file = load_problem(path)
        assert from_text.observables == from_file.observables
        assert from_text.chart == from_file.chart

    def test_missing_map_coordinate(self):
        with pytest.raises(ChartError):
            load_problem(
                {
                    "chart": {"pairs": [["p1", "q1"]]},
                    "pullback": {"target": {"pairs": [["z", "w"]]}, "map": {"z": "p1"}},
                }
            )

    def test_empty_chart_rejected(self):
        with pytest.raises(ChartError):
            load_problem({"chart": {"pairs": []}})

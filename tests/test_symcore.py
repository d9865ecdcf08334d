import random
from fractions import Fraction

import pytest

from pseudoquant.exprparse import load_problem, parse_poly
from pseudoquant.symcore import (
    EXP_LIMIT,
    ChartError,
    ChartSpec,
    OneForm,
    Poly,
    Scalar,
    SmoothMap,
    TwoForm,
    _hamiltonian_raw,
    _normal,
    _Record,
    _sum_derivations,
    exterior_d,
    poisson,
    pullback_form,
    standard_chart,
    standard_potential,
    standard_symplectic,
)

import oracles
from conftest import random_poly


class TestScalar:
    def test_format(self):
        assert str(Scalar(0, 1)) == "i"
        assert str(Scalar(0, -1)) == "-i"
        assert str(Scalar(Fraction(1, 2))) == "1/2"
        assert str(Scalar(1, -1)) == "(1 - i)"


class TestPoly:
    def test_partial_power_rule(self, ab1):
        alpha = Poly.var(ab1, "a1")
        beta = Poly.var(ab1, "b1")
        assert (alpha**2 * beta).partial("a1") == alpha.scale(2) * beta
        assert alpha.partial("b1").is_zero()
        assert (Poly.hbar(ab1) * alpha).partial("a1") == Poly.hbar(ab1)

    def test_arithmetic_ring_axioms(self, ab1, rng):
        for _ in range(20):
            p = random_poly(ab1, rng)
            q = random_poly(ab1, rng)
            r = random_poly(ab1, rng)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p
            assert (p - p).is_zero()

    def test_pow(self, ab1):
        alpha = Poly.var(ab1, "a1")
        assert (alpha + 1) ** 3 == alpha**3 + alpha.scale(3) * alpha + alpha.scale(3) + 1
        with pytest.raises(ValueError):
            alpha**-1

    def test_pow_uses_minimal_multiplications(self, ab1, monkeypatch):
        p = Poly.var(ab1, "a1") + Poly.var(ab1, "b1").scale(Scalar(Fraction(1, 2), 1)) + 1
        calls = []
        mul = Poly.__mul__

        def counting_mul(self, other):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting_mul)
        for k in range(10):
            calls.clear()
            got = p**k
            assert len(calls) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)
            want = Poly.const(ab1, 1)
            for _ in range(k):
                want = want * p
            assert got == want

    def test_substitute_and_evaluate(self, pq1, ab1):
        p = Poly.var(pq1, "p1")
        q = Poly.var(pq1, "q1")
        expr = p**2 + Poly.hbar(pq1) * q
        image = expr.substitute(
            ab1, {"p1": Poly.var(ab1, "a1").scale(2), "q1": Poly.var(ab1, "b1")}
        )
        alpha, beta = Poly.var(ab1, "a1"), Poly.var(ab1, "b1")
        assert image == alpha.scale(4) * alpha + Poly.hbar(ab1) * beta
        val = expr.evaluate({"p1": 2.0, "q1": 3.0}, hbar=0.5)
        assert val == pytest.approx(4.0 + 1.5)

    def test_div_exact_hbar(self, ab1):
        h = Poly.hbar(ab1)
        assert (h * h.scale(3)).div_minus_i_hbar() == h.scale(Scalar(0, 3))
        assert Poly.minus_i_hbar(ab1).div_minus_i_hbar() == Poly.const(ab1, 1)
        with pytest.raises(ValueError):
            Poly.var(ab1, "a1").div_minus_i_hbar()


class TestExponentFields:
    """Each coordinate exponent stays below EXP_LIMIT = 2**15; hbar's exponent is unbounded."""

    def test_constructor_rejects_a_coordinate_exponent_at_the_limit(self, pq1):
        assert EXP_LIMIT == 2**15
        assert Poly(pq1, {(0, 2**15 - 1, 0): 1}).terms.keys() == {(0, 2**15 - 1, 0)}
        for exp in [(0, 2**15, 0), (0, 0, 2**15), (0, 2**16, 0)]:
            with pytest.raises(ChartError, match="below 32768"):
                Poly(pq1, {exp: 1})

    def test_every_product_raises_on_overflow(self, pq1):
        p, q = Poly.var(pq1, "p1"), Poly.var(pq1, "q1")
        half = p ** (2**14)
        assert str(half * p ** (2**14 - 1)) == "p1^32767"
        with pytest.raises(ChartError, match="below 32768"):  # unit monomials: the shift path
            half * half
        with pytest.raises(ChartError, match="below 32768"):  # the sum-of-products kernel
            half.scale(2) * (half.scale(3) + q)
        with pytest.raises(ChartError, match="below 32768"):  # one field of several overflows
            (q ** (2**15 - 1) * half) * (q + p.scale(Fraction(1, 2)) * half)
        with pytest.raises(ChartError, match="below 32768"):  # the derivation kernel
            _sum_derivations(pq1, [(1, half, 2, half * q * q)])  # half * d(half * q1^2)/dq1
        with pytest.raises(ChartError, match="below 32768"):  # substitute's image products
            (p * q).substitute(pq1, {"p1": half.scale(5) + q, "q1": half})
        zero = Poly.zero(pq1)
        x, y = oracles.raw([p**20000, zero]), oracles.raw([zero, p**30000])
        with pytest.raises(ChartError, match="below 32768"):  # the pairing: 70000 would carry
            TwoForm(pq1, {(0, 1): p**20000})._pair_raw(x, y)
        with pytest.raises(ChartError, match="below 32768"):  # a constant coefficient: 50000
            standard_symplectic(pq1)._pair_raw(x, y)

    def test_hbar_field_is_unbounded(self, pq1):
        exp = (70000, 3, 2**15 - 1)
        p = Poly(pq1, {exp: Fraction(2, 3)})
        assert list(p.terms) == [exp] and str(p.terms[exp]) == "2/3"
        assert Poly(pq1, p.terms) == p
        big = p * Poly.hbar(pq1) ** 70000 * Poly.var(pq1, "p1")
        assert list(big.terms) == [(140000, 4, 2**15 - 1)]
        assert str(big) == "(2/3)*hbar^140000*p1^4*q1^32767"
        assert big.times_minus_i_hbar().div_minus_i_hbar() == big
        assert big.partial("hbar").terms.keys() == {(139999, 4, 2**15 - 1)}
        assert big.depends_on("hbar") and not Poly.var(pq1, "q1").depends_on("hbar")


@pytest.mark.parametrize("text, printed", [
    ("(1/2+i)*p1", "(1/2 + i)*p1"),
    ("-p1/2", "(-1/2)*p1"),
    ("2*i*hbar*q1-i*p1+7", "7 - i*p1 + 2*i*hbar*q1"),
    ("(-1/2 - i/3)*q1 - 4", "-4 + (-1/2 - 1/3*i)*q1"),
    ("0", "0"),
    ("i", "i"),
    ("-i", "-i"),
    ("(1 - i)", "(1 - i)"),
    ("p1/(1+i)", "(1/2 - 1/2*i)*p1"),
    ("1/(2*i)", "-1/2*i"),
    ("(-3+2*i)", "(-3 + 2*i)"),
    ("-(1/3)*i*p1", "(-1/3*i)*p1"),
    ("-2*i*p1 + 3*q1", "3*q1 - 2*i*p1"),
    ("-3*p1 - hbar", "-3*p1 - hbar"),
    ("(1+i)*p1 - (1-i)*q1", "(-1 + i)*q1 + (1 + i)*p1"),
    ("3/4*hbar^2*p1*q1 + 2/3", "2/3 + (3/4)*hbar^2*p1*q1"),
    ("hbar - i*hbar^2*p1/7", "hbar + (-1/7*i)*hbar^2*p1"),
])
def test_printed_form(pq1, text, printed):
    assert str(parse_poly(text, pq1)) == printed


class TestHamiltonianStructure:
    def test_basic_fields(self, ab1):
        alpha, beta = Poly.var(ab1, "a1"), Poly.var(ab1, "b1")
        zero, one = Poly.zero(ab1), Poly.const(ab1, 1)
        half_sq = alpha * alpha * Poly.const(ab1, Fraction(1, 2))
        for A, want in [(alpha, [zero, one]), (beta, [-one, zero]), (half_sq, [zero, alpha])]:
            assert oracles.hamiltonian(A) == want
            assert [_normal(ab1, m, d) for m, d in _hamiltonian_raw(A)] == want

    def test_poisson_examples(self, ab1):
        alpha = Poly.var(ab1, "a1")
        beta = Poly.var(ab1, "b1")
        assert poisson(alpha, beta) == Poly.const(ab1, 1)
        assert poisson(alpha, alpha).is_zero()
        half_sq = alpha * alpha * Poly.const(ab1, Fraction(1, 2))
        assert poisson(half_sq, beta) == alpha

    def test_poisson_antisymmetry_and_jacobi(self, pq2, rng):
        for _ in range(15):
            a = random_poly(pq2, rng)
            b = random_poly(pq2, rng)
            c = random_poly(pq2, rng)
            assert poisson(a, b) == -poisson(b, a)
            jac = (
                poisson(a, poisson(b, c))
                + poisson(b, poisson(c, a))
                + poisson(c, poisson(a, b))
            )
            assert jac.is_zero()
            assert poisson(a, b * c) == poisson(a, b) * c + b * poisson(a, c)

    def test_lie_algebra_morphism(self, pq2, rng):
        for _ in range(15):
            a = random_poly(pq2, rng)
            b = random_poly(pq2, rng)
            lhs = oracles.lie_bracket(oracles.hamiltonian(a), oracles.hamiltonian(b))
            assert lhs == oracles.hamiltonian(poisson(a, b))

    def test_symplectic_normalisation(self, pq2):
        omega = standard_symplectic(pq2)
        for i in range(2):
            p = Poly.var(pq2, f"p{i + 1}")
            q = Poly.var(pq2, f"q{i + 1}")
            x, y = (oracles.raw(oracles.hamiltonian(v)) for v in (p, q))
            assert omega._pair_raw(x, y) == Poly.const(pq2, 1)


class TestExteriorCalculus:
    def test_d_of_standard_potential(self, ab1):
        theta = standard_potential(ab1)
        assert exterior_d(theta) == standard_symplectic(ab1)

    def test_d_of_quadratic_potential(self, pq1):
        p = Poly.var(pq1, "p1")
        half_sq = p * p * Poly.const(pq1, Fraction(1, 2))
        theta = OneForm.from_dict(pq1, {"dq1": half_sq})
        assert exterior_d(theta) == TwoForm(pq1, {(0, 1): p})

    def test_shifted_potential_curvature(self, pq1):
        # potential (p/2 - f)dq - (q/2 - g)dp has curvature (1 - f_p - g_q) dp^dq
        p, q = Poly.var(pq1, "p1"), Poly.var(pq1, "q1")
        half = Poly.const(pq1, Fraction(1, 2))
        for f, g in [(p, q), (p * q, p * q), (q, p)]:
            theta = OneForm.from_dict(pq1, {"dq1": half * p - f, "dp1": -(half * q - g)})
            want = Poly.const(pq1, 1) - f.partial("p1") - g.partial("q1")
            got = exterior_d(theta).component(0, 1)
            assert got == want

    def test_dd_zero(self, pq2, rng):
        for _ in range(15):
            f = random_poly(pq2, rng)
            assert exterior_d(exterior_d(f)).is_zero()

    def test_contract(self, ab1):
        alpha = Poly.var(ab1, "a1")
        theta = standard_potential(ab1)  # alpha d(beta)
        d_beta_dir = [Poly.zero(ab1), Poly.const(ab1, 1)]
        d_alpha_dir = [Poly.const(ab1, 1), Poly.zero(ab1)]
        assert oracles.contract(theta.comps, d_beta_dir) == alpha
        assert oracles.contract(theta.comps, d_alpha_dir).is_zero()

    def test_wedge_antisymmetry(self, pq2, rng):
        for _ in range(10):
            a = [random_poly(pq2, rng, 2, 2) for _ in range(4)]
            b = [random_poly(pq2, rng, 2, 2) for _ in range(4)]
            ab, ba = oracles.wedge(a, b), oracles.wedge(b, a)
            assert ab == [[-c for c in row] for row in ba]
            assert all(c.is_zero() for row in oracles.wedge(a, a) for c in row)


def _random_map(src, tgt, rng):
    return SmoothMap(src, tgt, [random_poly(src, rng, 2, 2) for _ in range(2 * tgt.n)])


class TestPullback:
    def test_identity(self, pq2, rng):
        ident = SmoothMap(pq2, pq2, [Poly.var(pq2, x) for x in pq2.coords])
        f = random_poly(pq2, rng)
        assert pullback_form(ident, f) == f
        theta = standard_potential(pq2)
        assert pullback_form(ident, theta) == theta
        with pytest.raises(TypeError, match="^pullback_form expects a Poly or a OneForm$"):
            pullback_form(ident, standard_symplectic(pq2))  # two-forms pull back in tests/oracles.py

    def test_cylinder_one_form(self):
        src = ChartSpec((("l", "phi_l"),))
        tgt = ChartSpec((("z", "phi_z"),))
        lam = Fraction(1, 2)
        m = SmoothMap(src, tgt, [Poly.var(src, "l").scale(1 / lam), Poly.var(src, "phi_l")])
        pulled = pullback_form(m, standard_potential(tgt))
        want = OneForm.from_dict(src, {"dphi_l": Poly.var(src, "l").scale(2)})
        assert pulled == want

    def test_naturality(self, pq1, pq2, rng):
        for _ in range(10):
            m = _random_map(pq2, pq1, rng)
            f = random_poly(pq1, rng, 2, 3)
            assert pullback_form(m, exterior_d(f)) == exterior_d(pullback_form(m, f))
            theta = OneForm(pq1, [random_poly(pq1, rng, 2, 2) for _ in range(2)])
            pulled = oracles.pullback(m, oracles.matrix(exterior_d(theta)))
            assert pulled == oracles.matrix(exterior_d(pullback_form(m, theta)))

    def test_wedge_naturality(self, pq1, pq2, rng):
        for _ in range(10):
            m = _random_map(pq2, pq1, rng)
            a = OneForm(pq1, [random_poly(pq1, rng, 2, 2) for _ in range(2)])
            b = OneForm(pq1, [random_poly(pq1, rng, 2, 2) for _ in range(2)])
            assert oracles.pullback(m, oracles.wedge(a.comps, b.comps)) == oracles.wedge(
                pullback_form(m, a).comps, pullback_form(m, b).comps
            )


class TestChartValidation:
    def test_duplicate_labels(self):
        with pytest.raises(ChartError, match="^coordinate labels must be distinct and not 'hbar'$"):
            ChartSpec((("x", "x"),))

    def test_hbar_reserved(self):
        with pytest.raises(ChartError, match="^coordinate labels must be distinct and not 'hbar'$"):
            ChartSpec((("hbar", "q"),))

    def test_empty_chart(self):
        with pytest.raises(ChartError, match="^chart needs at least one coordinate pair$"):
            ChartSpec(())

    def test_equality_and_hash_by_pairs(self):
        a, b = ChartSpec((("p1", "q1"),)), ChartSpec((("p1", "q1"),))
        assert a.coords == ("p1", "q1")  # a cached name tuple takes no part
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b, standard_chart(1)}) == 1
        assert a != ChartSpec((("a1", "b1"),))
        assert a != standard_chart(2)
        assert a != (("p1", "q1"),)

    def test_one_chart_object_per_pairs(self):
        p = (("p1", "q1"),)
        assert ChartSpec(p) is ChartSpec(p)
        assert standard_chart(1) is ChartSpec((("p1", "q1"),))
        assert ChartSpec(pairs=p) is ChartSpec(p)
        assert load_problem({}).chart is standard_chart(1)
        c = ChartSpec((("a1", "b1"), ("a2", "b2")))
        assert hash(c) == hash(c.pairs)
        assert "__eq__" not in vars(ChartSpec)
        for _ in range(2):  # a rejected layout is not stored, so it raises every time
            with pytest.raises(
                ChartError, match="^coordinate labels must be distinct and not 'hbar'$"
            ):
                ChartSpec((("x", "x"),))

    def test_repr(self):
        assert repr(ChartSpec((("p1", "q1"),))) == "ChartSpec(pairs=(('p1', 'q1'),))"

    def test_immutable(self, pq1):
        with pytest.raises(AttributeError):
            pq1.pairs = (("a1", "b1"),)
        with pytest.raises(AttributeError):
            pq1.label = "x"
        assert pq1.pairs == (("p1", "q1"),)

    def test_chart_mismatch(self, pq1, ab1):
        with pytest.raises(ChartError):
            poisson(Poly.var(pq1, "p1"), Poly.var(ab1, "a1"))

    def test_coordinate_names_built_once(self, pq2):
        assert pq2.coords is pq2.coords
        assert pq2.variables is pq2.variables
        assert pq2.variables == ("hbar",) + pq2.coords

    def test_standard_chart_styles(self):
        assert standard_chart(2).coords == ("p1", "p2", "q1", "q2")


@pytest.mark.parametrize("cls, noun", [(OneForm, "one-form")])
class TestFormAndFieldRecords:
    def test_validation_messages(self, cls, noun, pq1, ab1):
        with pytest.raises(ChartError, match=f"^{noun} needs 2n coefficient polynomials$"):
            cls(pq1, [Poly.zero(pq1)])
        with pytest.raises(ChartError, match=f"^{noun} coefficient on the wrong chart$"):
            cls(pq1, [Poly.zero(pq1), Poly.zero(ab1)])

    def test_immutable(self, cls, noun, pq1):
        rec = cls(pq1, [Poly.var(pq1, "p1"), Poly.zero(pq1)])
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            rec.comps = ()
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            rec.label = "x"

    def test_sum_and_chart_mismatch(self, cls, noun, pq1, ab1):
        p, q = Poly.var(pq1, "p1"), Poly.var(pq1, "q1")
        assert cls(pq1, [p, q]) + cls(pq1, [q, p]) == cls(pq1, [p + q, p + q])
        with pytest.raises(ChartError):
            cls(pq1, [p, q]) + cls(ab1, [Poly.zero(ab1)] * 2)


@pytest.mark.parametrize("c", [3, 0, Fraction(-1, 2), Scalar(Fraction(1, 3), 2)])
def test_one_form_scale_by_constant_is_componentwise_poly_scale(pq1, c):
    form = OneForm(pq1, [Poly.var(pq1, "q1").scale(Fraction(1, 2)), Poly.var(pq1, "p1") + 1])
    assert form.scale(c) == OneForm(pq1, [a.scale(c) for a in form.comps])


def test_records_share_one_immutability_rule():
    """Every exact-layer record takes ``__setattr__`` from one base and names itself."""
    import pseudoquant.exprparse
    import pseudoquant.verify  # noqa: F401  (defines CheckResult)

    records, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            records.add(sub)
            todo.append(sub)
    assert {cls.__name__ for cls in records} == {
        "Scalar", "ChartSpec", "Poly", "OneForm", "TwoForm", "SmoothMap",
        "ConnectionData", "FormalOperator", "PullbackSetup", "Polarisation",
        "FlatSectionAction", "PreservationReport", "ProblemFile", "CheckResult",
    }
    assert all("__setattr__" not in vars(cls) for cls in records)
    for record in (Scalar(1), Poly.zero(standard_chart(1)),
                   pseudoquant.exprparse.load_problem({})):
        with pytest.raises(AttributeError, match=f"^{type(record).__name__} is immutable$"):
            record.chart = None

"""Property tests for the exact symbolic core (Poly, FormalOperator, poisson, parser)."""

from fractions import Fraction
from math import gcd

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudoquant.exprparse import parse_poly
from pseudoquant.prequant import FormalOperator, commutator
from pseudoquant.symcore import Poly, Scalar, poisson, standard_chart

CHART = standard_chart(2)
NV = len(CHART.variables)

PROPS = settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
scalars = st.builds(Scalar, fractions, fractions)
exponents = st.tuples(st.integers(0, 1), *[st.integers(0, 2)] * (NV - 1))


def polys(max_terms: int = 4):
    return st.dictionaries(exponents, scalars, max_size=max_terms).map(
        lambda terms: Poly(CHART, terms)
    )


coord_polys = st.dictionaries(
    st.tuples(st.just(0), *[st.integers(0, 2)] * (NV - 1)), scalars, max_size=3
).map(lambda terms: Poly(CHART, terms))
multi_indices = st.tuples(*[st.integers(0, 2)] * (2 * CHART.n))
operators = st.dictionaries(multi_indices, polys(2), max_size=3).map(
    lambda terms: FormalOperator(CHART, terms)
)
variables = st.sampled_from(CHART.variables)


def assert_normal_form(p: Poly) -> None:
    assert p.den > 0
    assert all(re or im for re, im in p.nums.values())
    g = p.den
    for re, im in p.nums.values():
        g = gcd(g, re, im)
    assert g == 1


def assert_same_representation(a: Poly, b: Poly) -> None:
    assert a == b
    assert a.nums == b.nums
    assert a.den == b.den
    assert hash(a) == hash(b)


@PROPS
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    zero, one = Poly.zero(CHART), Poly.const(CHART, 1)
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p
    assert (p * zero).is_zero()
    assert (p - q) + q == p
    assert (p + (-p)).is_zero()


@PROPS
@given(polys(), polys(), variables)
def test_leibniz_rule(p, q, name):
    assert (p * q).partial(name) == p.partial(name) * q + p * q.partial(name)
    assert (p + q).partial(name) == p.partial(name) + q.partial(name)


@PROPS
@given(operators, operators, polys())
def test_compose_is_application_in_sequence(op1, op2, f):
    assert op1.compose(op2).apply(f) == op1.apply(op2.apply(f))


@PROPS
@given(operators, operators)
def test_commutator_is_difference_of_compositions(op1, op2):
    assert commutator(op1, op2) == op1.compose(op2) - op2.compose(op1)


@PROPS
@given(coord_polys, coord_polys, coord_polys)
def test_poisson_jacobi_identity(a, b, c):
    jac = poisson(a, poisson(b, c)) + poisson(b, poisson(c, a)) + poisson(c, poisson(a, b))
    assert jac.is_zero()
    assert poisson(a, b) == -poisson(b, a)


@PROPS
@given(polys(6))
def test_parse_round_trip(p):
    assert parse_poly(str(p), CHART) == p


@PROPS
@given(polys(), polys(), scalars, st.integers(1, 5))
def test_normal_form_is_canonical(p, q, c, k):
    for result in (p + q, p * q, p.scale(c), p.partial("p1"), p**2, p - p):
        assert_normal_form(result)
    assert_same_representation((p + q) - q, p)
    assert_same_representation(Poly(CHART, p.terms), p)
    assert_same_representation(p * q, q * p)
    summed = Poly.zero(CHART)
    for _ in range(k):
        summed = summed + p
    assert_same_representation(summed, p.scale(k))
    norm = c.re * c.re + c.im * c.im
    if norm:
        inverse = Scalar(c.re / norm, -c.im / norm)
        assert_same_representation(p.scale(c).scale(inverse), p)
    half = p.scale(Fraction(1, 2))
    assert_same_representation(half + half, p)

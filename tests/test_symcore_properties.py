"""Property tests for the exact symbolic core (Poly, FormalOperator, poisson, parser).

``quantise`` and ``commutator_rhs`` are checked here as well: ``quantise`` is
linear, and ``commutator_rhs`` bilinear and antisymmetric in its two
observables, over the Gaussian rationals and over ``hbar``.  These are what
make ``tests/test_prequant.py::test_commutator_identity_on_every_monomial_pair``
a proof up to its degree.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pseudoquant.exprparse import parse_poly
from pseudoquant.prequant import (
    FormalOperator,
    _first_order,
    commutator,
    commutator_rhs,
    quantise,
)
from pseudoquant.symcore import (
    EXP_LIMIT,
    Poly,
    Scalar,
    TwoForm,
    VectorField,
    _quantised_field,
    _sum_derivations,
    _sum_products,
    contract,
    hamiltonian_vf,
    poisson,
    standard_chart,
    standard_potential,
    standard_symplectic,
)
from pseudoquant.verify import cylinder_setup, example_connections

CHART = standard_chart(2)
NV = len(CHART.variables)

PROPS = settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
scalars = st.builds(Scalar, fractions, fractions)
nonzero_scalars = st.builds(Scalar, fractions.filter(bool), fractions)


def exponents_on(chart):
    return st.tuples(st.integers(0, 1), *[st.integers(0, 2)] * (len(chart.variables) - 1))


exponents = exponents_on(CHART)


def polys(max_terms: int = 4, min_terms: int = 0, chart=CHART):
    coeffs = nonzero_scalars if min_terms else scalars
    terms = st.dictionaries(exponents_on(chart), coeffs, min_size=min_terms, max_size=max_terms)
    return terms.map(lambda terms: Poly(chart, terms))


coord_polys = st.dictionaries(
    st.tuples(st.just(0), *[st.integers(0, 2)] * (NV - 1)), scalars, max_size=3
).map(lambda terms: Poly(CHART, terms))
multi_indices = st.tuples(*[st.integers(0, 2)] * (2 * CHART.n))
operators = st.dictionaries(multi_indices, polys(2), max_size=3).map(
    lambda terms: FormalOperator(CHART, terms)
)


def first_order_operators_on(chart):
    indices = st.sampled_from(  # j = -1 is the multiplication index (0, ..., 0)
        [tuple(int(i == j) for i in range(2 * chart.n)) for j in range(-1, 2 * chart.n)]
    )
    terms = st.dictionaries(indices, polys(2, chart=chart), max_size=3)
    return terms.map(lambda terms: FormalOperator(chart, terms))


first_order_operators = first_order_operators_on(CHART)
variables = st.sampled_from(CHART.variables)
polys_or_zero = st.one_of(st.just(Poly.zero(CHART)), polys())
factors = st.integers(-6, 6).filter(bool)
units = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])


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


def fraction_sum_products(triples) -> Poly:
    """sum k * p * q coefficient by coefficient in Fractions, through the public constructor."""
    acc = {}
    for k, p, q in triples:
        for e1, a in p.terms.items():
            for e2, b in q.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                re, im = acc.get(e, (0, 0))
                acc[e] = (re + k * (a.re * b.re - a.im * b.im), im + k * (a.re * b.im + a.im * b.re))
    return Poly(CHART, {e: Scalar(re, im) for e, (re, im) in acc.items()})


def wide_exponents_on(chart):
    """Exponent tuples up to the field limit, hbar's past one 16-bit field."""
    field = st.one_of(st.integers(0, 3), st.integers(0, EXP_LIMIT - 1))
    hbar = st.one_of(st.integers(0, 3), st.integers(0, 2**20))
    return st.tuples(hbar, *[field] * (2 * chart.n))


every_chart = st.sampled_from([standard_chart(1), CHART, standard_chart(3)])


def polys_on_every_chart():
    """Polys on the 1-, 2- and 3-pair charts, with small exponents or ``wide_exponents_on``."""

    def on(chart):
        wide = st.dictionaries(wide_exponents_on(chart), nonzero_scalars, max_size=4)
        return st.one_of(polys(chart=chart), wide.map(lambda terms: Poly(chart, terms)))

    return every_chart.flatmap(on)


@PROPS
@given(st.data(), st.sampled_from([standard_chart(1), standard_chart(3)]))
def test_packed_keys_round_trip_and_sort_as_exponent_tuples(data, chart):
    p = data.draw(
        st.one_of(
            polys(6, chart=chart),
            st.dictionaries(wide_exponents_on(chart), nonzero_scalars, max_size=8).map(
                lambda terms: Poly(chart, terms)
            ),
        )
    )
    assert_same_representation(Poly(chart, p.terms), p)
    pairs = list(zip(p.nums, p.terms))  # (packed key, exponent tuple), in nums order
    assert sorted(pairs) == sorted(pairs, key=lambda pair: pair[1])


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
@given(
    st.lists(st.tuples(factors, polys_or_zero, polys_or_zero), max_size=5),
    polys(4, min_terms=1),
    polys(4, min_terms=1),
    st.integers(2, 9),
)
def test_sum_products_is_the_term_by_term_sum(triples, q, r, d):
    # a product over one more denominator, and two products that cancel exactly
    triples = triples + [(1, r.scale(Fraction(1, d)), r), (1, r, q), (-1, q, r)]
    got = _sum_products(CHART, triples)
    assert_normal_form(got)
    term_by_term = Poly.zero(CHART)
    for k, a, b in triples:
        term_by_term = term_by_term + (a * b).scale(k)
    assert_same_representation(got, term_by_term)
    assert_same_representation(got, fraction_sum_products(triples))


variable_indices = st.integers(0, NV - 1)


@PROPS
@given(
    st.lists(st.tuples(factors, polys_or_zero, variable_indices, polys_or_zero), max_size=5),
    polys(4, min_terms=1),
    polys(4, min_terms=1),
    variable_indices,
    st.integers(2, 9),
)
def test_sum_derivations_is_the_sum_of_products_of_partials(quads, q, r, i, d):
    # x_i^d / d, whose derivative x_i^(d-1) has denominator 1, and two terms that cancel exactly
    x = Poly(CHART, {tuple(d * (j == i) for j in range(NV)): Fraction(1, d)})
    quads = quads + [(1, q, i, x), (1, r, i, q), (-1, r, i, q)]
    got = _sum_derivations(CHART, quads)
    assert_normal_form(got)
    want = _sum_products(CHART, [(k, p, f._partial(j)) for k, p, j, f in quads])
    assert_same_representation(got, want)


@PROPS
@given(polys_on_every_chart())
@example(Poly(CHART, {(0, 2, 0, 1, 0): Fraction(1, 2)}))  # d/dp1 of p1^2*q1/2 has denominator 1
def test_hamiltonian_field_is_the_signed_partial_derivatives(a):
    n = a.chart.n
    want = [-a._partial(1 + n + i) for i in range(n)] + [a._partial(1 + i) for i in range(n)]
    for got, w in zip(hamiltonian_vf(a).comps, want, strict=True):
        assert_normal_form(got)
        assert_same_representation(got, w)


@PROPS
@given(polys(), units, exponents)
def test_unit_monomial_product_is_the_general_product(p, unit, exp):
    u = Poly(CHART, {exp: Scalar(*unit)})
    general = _sum_products(CHART, [(1, p, u)])
    assert_same_representation(general, fraction_sum_products([(1, p, u)]))
    for product in (p * u, u * p):
        assert_normal_form(product)
        assert_same_representation(product, general)


@PROPS
@given(polys())
def test_zero_operand_results_are_normal(p):
    for result in (p * 0, 0 * p, p * Poly.zero(CHART), 0 + p, p + 0, Poly.zero(CHART) + p):
        assert_normal_form(result)
    assert_same_representation(p * 0, Poly.zero(CHART))
    assert_same_representation(0 + p, p)


@PROPS
@given(operators, operators, first_order_operators, first_order_operators, polys())
def test_operator_results_hold_no_zero_coefficient(op1, op2, fo1, fo2, p):
    for result in (
        op1 + op2, op1 - op1, op1.scale(p), op1.scale(0), op1.compose(op2), commutator(fo1, fo2)
    ):
        assert all(not c.is_zero() for c in result.terms.values())
    assert (op1 - op1).terms == {}
    assert commutator(fo1, fo1).is_zero()


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
@given(every_chart.flatmap(lambda chart: st.tuples(*[first_order_operators_on(chart)] * 2)))
def test_commutator_is_difference_of_compositions(ops):
    op1, op2 = ops
    assert commutator(op1, op2) == op1.compose(op2) - op2.compose(op1)


def test_commutator_rejects_an_order_two_operand():
    first = FormalOperator(CHART, {(1, 0, 0, 0): Poly.var(CHART, "q1")})
    for index in ((0, 1, 1, 0), (2, 0, 0, 0)):  # a mixed and a pure second derivative
        second = FormalOperator(CHART, {index: Poly.const(CHART, 1)})
        for args in ((first, second), (second, first), (second, second)):
            with pytest.raises(ValueError, match="order <= 1"):
                commutator(*args)


@PROPS
@given(polys())
def test_times_minus_i_hbar_is_the_product(p):
    minus_i_hbar = Poly.minus_i_hbar(CHART)
    got = p.times_minus_i_hbar()
    assert_normal_form(got)
    assert_same_representation(got, p * minus_i_hbar)
    assert_same_representation(got, fraction_sum_products([(1, p, minus_i_hbar)]))
    assert_same_representation(got.div_minus_i_hbar(), p)
    # (-i*hbar)**2 = -hbar**2, as the raw field kernel applies it to each component of X_p
    squared, _ = _quantised_field(p, standard_potential(CHART), 2)
    for s, x in zip(squared, hamiltonian_vf(p).comps, strict=True):
        assert_normal_form(s)
        assert_same_representation(s, x.times_minus_i_hbar().times_minus_i_hbar())
        assert_same_representation(s, fraction_sum_products([(-1, x, Poly.hbar(CHART) ** 2)]))


# the example connections, plus one induced by a pullback: Theta = (3/2) * l * dphi_l
CONNECTIONS = example_connections() | {"cylinder-induced": cylinder_setup(Fraction(2, 3)).induced}


@st.composite
def oracle_inputs(draw):
    """A connection of ``example_connections()``, three observables on its chart, a scalar."""
    conn = CONNECTIONS[draw(st.sampled_from(sorted(CONNECTIONS)))]
    chart = conn.chart
    a, b, c = (draw(polys(3, chart=chart)) for _ in range(3))
    k = draw(st.one_of(scalars.map(lambda z: Poly.const(chart, z)), st.just(Poly.hbar(chart))))
    return conn, a, b, c, k


@PROPS
@given(oracle_inputs())
def test_commutator_rhs_is_antisymmetric_and_bilinear(inputs):
    conn, a, b, c, k = inputs
    rhs = commutator_rhs(a, b, conn)
    assert commutator_rhs(b, a, conn) == -rhs
    assert commutator_rhs(a, a, conn).is_zero()
    assert commutator_rhs(a + k * c, b, conn) == rhs + commutator_rhs(c, b, conn).scale(k)
    assert commutator_rhs(a, b + k * c, conn) == rhs + commutator_rhs(a, c, conn).scale(k)


@PROPS
@given(oracle_inputs())
def test_quantise_is_linear(inputs):
    conn, a, b, _, k = inputs
    assert quantise(a + k * b, conn) == quantise(a, conn) + quantise(b, conn).scale(k)


@PROPS
@given(oracle_inputs())
def test_raw_field_route_is_the_vector_field_route(inputs):
    """quantise and commutator_rhs read Hamiltonian fields as raw maps; here through VectorField.

    op(A) = -i*hbar*X_A + A - Theta(X_A), and [op(A), op(B)] =
    -i*hbar * (-i*hbar*X_P - Theta(X_P) - Omega(X_A, X_B) + 2P) with P = {A, B}.
    """
    conn, a, b, _, _ = inputs
    chart, theta, minus_i_hbar = conn.chart, conn.theta, Poly.minus_i_hbar(conn.chart)
    X = hamiltonian_vf(a)
    want = _first_order(chart, [x.times_minus_i_hbar() for x in X.comps], a - contract(theta, X))
    assert quantise(a, conn) == want
    P, XP = poisson(a, b), hamiltonian_vf(poisson(a, b))
    rest = P.scale(2) - conn.omega_curv.pair(X, hamiltonian_vf(b)) - contract(theta, XP)
    vec = [x * minus_i_hbar * minus_i_hbar for x in XP.comps]
    assert commutator_rhs(a, b, conn) == _first_order(chart, vec, rest * minus_i_hbar)


vector_fields = st.lists(polys(2), min_size=2 * CHART.n, max_size=2 * CHART.n).map(
    lambda comps: VectorField(CHART, comps)
)


@PROPS
@given(vector_fields, vector_fields)
def test_omega_is_the_standard_symplectic_pairing(x, y):
    n, want = CHART.n, Poly.zero(CHART)
    for i in range(n):  # omega(X, Y) = sum_i X[alpha_i] Y[beta_i] - X[beta_i] Y[alpha_i]
        want = want + x.comps[i] * y.comps[n + i] - x.comps[n + i] * y.comps[i]
    assert standard_symplectic(CHART).pair(x, y) == want


two_form_coefficients = st.one_of(
    fractions.map(lambda c: Poly.const(CHART, c)),  # real constants: folded into the multiplier
    scalars.map(lambda c: Poly.const(CHART, c)),
    polys(2),
)
two_forms = st.dictionaries(
    st.sampled_from([(i, j) for j in range(2 * CHART.n) for i in range(j)]),
    two_form_coefficients,
    max_size=4,
).map(lambda comps: TwoForm(CHART, comps))


@PROPS
@given(two_forms, vector_fields, vector_fields)
@example(
    TwoForm(CHART, {(0, 2): Poly.const(CHART, Fraction(-1, 2))}),
    VectorField(CHART, [Poly.const(CHART, 1)] + [Poly.zero(CHART)] * 3),
    VectorField(CHART, [Poly.zero(CHART)] * 2 + [Poly.var(CHART, "q1"), Poly.zero(CHART)]),
)
def test_pairing_is_the_antisymmetrised_coefficient_sum(form, x, y):
    want = Poly.zero(CHART)
    for (i, j), c in form.comps.items():  # sum_{i<j} c_ij (X_i Y_j - X_j Y_i)
        want = want + c * (x.comps[i] * y.comps[j] - x.comps[j] * y.comps[i])
    assert form.pair(x, y) == want


@PROPS
@given(polys(), polys())
def test_poisson_bracket_is_the_hamiltonian_derivative(a, b):
    # {A, B} = X_A(B): the sign convention, stated without omega
    assert poisson(a, b) == hamiltonian_vf(a).apply(b)


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
    mapping = {name: Poly.var(CHART, name) for name in CHART.coords} | {"p1": q, "q2": q.scale(c)}
    substituted = p.substitute(CHART, mapping)
    for result in (
        p + q, p * q, p.scale(c), p.partial("p1"), p**2, p - p, p - q, 3 - p, substituted
    ):
        assert_normal_form(result)
    assert_same_representation((p + q) - q, p)
    assert_same_representation(p - q, p + (-q))
    assert_same_representation(3 - p, -(p - 3))
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


@PROPS
@given(polys(4, min_terms=1), st.integers(2, 9))
def test_substitution_whose_terms_cancel_is_the_zero_poly(q, d):
    image = q.scale(Fraction(1, d))  # a denominator above 1 on both cancelling pieces
    mapping = {name: Poly.var(CHART, name) for name in CHART.coords} | {"p1": image, "q1": image}
    result = (Poly.var(CHART, "p1") - Poly.var(CHART, "q1")).substitute(CHART, mapping)
    assert_same_representation(result, Poly.zero(CHART))
    assert result.den == 1

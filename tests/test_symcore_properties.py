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
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pseudoquant.exprparse import ExprSyntaxError, _Parser, parse_poly
from pseudoquant.polarisation import preserves, residual_operator, scaled_connection
from pseudoquant.prequant import (
    FormalOperator,
    _quantised,
    commutator,
    commutator_rhs,
    phase_conjugate,
    quantise,
)
from pseudoquant.symcore import (
    EXP_LIMIT,
    ChartError,
    ChartSpec,
    Poly,
    Scalar,
    TwoForm,
    _hamiltonian_raw,
    _normal,
    _sum_derivations,
    _sum_products,
    _sum_raw_products,
    poisson,
    standard_chart,
    standard_potential,
    standard_symplectic,
)
from pseudoquant.verify import cylinder_setup, example_connections

import oracles

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


def first_order(chart, vec, mult):
    """The operator sum_j vec[j] * d/dx_j + mult, through the public constructor."""
    m = 2 * chart.n
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    return FormalOperator(chart, dict(zip([*units, (0,) * m], [*vec, mult])))


def sparse_polys(chart, max_terms: int = 3):
    """Polys with many zero partial derivatives: constants, pure-beta Polys, one pair's Polys."""
    n, nv = chart.n, len(chart.variables)

    def on(support):  # exponents vanish off ``support``; hbar's may be 0 or 1
        exps = st.tuples(st.integers(0, 1), *[
            st.integers(0, 2) if v in support else st.just(0) for v in range(1, nv)
        ])
        return st.dictionaries(exps, nonzero_scalars, max_size=max_terms)

    supports = [range(1 + n, nv)] + [(1 + j, 1 + n + j) for j in range(n)]
    return st.one_of(
        scalars.map(lambda c: Poly.const(chart, c)),
        *[on(support).map(lambda terms: Poly(chart, terms)) for support in supports],
    )


def first_order_operators_on(chart):
    """First-order operators with up to three nonzero slots; sparse or dense coefficients."""
    indices = st.sampled_from(  # j = -1 is the multiplication index (0, ..., 0)
        [tuple(int(i == j) for i in range(2 * chart.n)) for j in range(-1, 2 * chart.n)]
    )
    coefficients = st.one_of(polys(2, chart=chart), sparse_polys(chart, 2))
    terms = st.dictionaries(indices, coefficients, max_size=3)
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


def small_or_wide_polys(chart):
    """Polys on ``chart`` with small exponents or ``wide_exponents_on``."""
    wide = st.dictionaries(wide_exponents_on(chart), nonzero_scalars, max_size=4)
    return st.one_of(polys(chart=chart), wide.map(lambda terms: Poly(chart, terms)))


def polys_on_every_chart():
    """Polys on the 1-, 2- and 3-pair charts, with small exponents or ``wide_exponents_on``."""
    return every_chart.flatmap(small_or_wide_polys)


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


@PROPS
@given(polys(4, min_terms=1), polys(4, min_terms=1), factors, factors, st.integers(1, 9))
def test_one_term_sum_of_products_is_the_general_path(p, q, k, k1, extra):
    """One ``(k, n1, n2, d)`` term takes ``d`` and ``k`` as they are; as k1 + k2, the lcm path."""
    k2 = k - k1
    assume(k2)
    d = p.den * q.den * extra
    got = _sum_raw_products(CHART, [(k, p.nums, q.nums, d)])
    assert_normal_form(got)
    split = [(k1, p.nums, q.nums, d), (k2, p.nums, q.nums, d)]
    assert_same_representation(got, _sum_raw_products(CHART, split))
    assert_same_representation(got, fraction_sum_products([(k, p, q)]).scale(Fraction(1, extra)))
    # (p + q) * (p - q): the cross terms cancel inside the one product
    s, t = p + q, p - q
    if s.nums and t.nums:
        got = _sum_raw_products(CHART, [(1, s.nums, t.nums, s.den * t.den)])
        assert_normal_form(got)
        assert_same_representation(got, fraction_sum_products([(1, p, p), (-1, q, q)]))
    # k and -k of one product cancel to the chart's zero Poly
    cancelled = [(k, p.nums, q.nums, d), (-k, p.nums, q.nums, d)]
    assert _sum_raw_products(CHART, cancelled) is CHART._zero


def test_one_term_sum_of_products_raises_at_the_exponent_bound():
    p1 = Poly.var(CHART, "p1")
    below, half = p1 ** (EXP_LIMIT // 2 - 1), p1 ** (EXP_LIMIT // 2)
    top = _sum_raw_products(CHART, [(3, half.nums, below.nums, 2)])
    assert str(top) == f"(3/2)*p1^{EXP_LIMIT - 1}"
    with pytest.raises(ChartError, match="below 32768"):
        _sum_raw_products(CHART, [(1, half.nums, half.nums, 1)])


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
    for (m, d), w in zip(_hamiltonian_raw(a), oracles.hamiltonian(a), strict=True):
        got = _normal(a.chart, m, d)
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
    assert oracles.apply(op1.compose(op2), f) == oracles.apply(op1, oracles.apply(op2, f))


@PROPS
@given(every_chart.flatmap(lambda chart: st.tuples(*[first_order_operators_on(chart)] * 2)))
def test_commutator_is_difference_of_compositions(ops):
    op1, op2 = ops
    assert commutator(op1, op2) == op1.compose(op2) - op2.compose(op1)


def test_commutator_rejects_an_order_two_operand():
    first = FormalOperator(CHART, {(1, 0, 0, 0): Poly.var(CHART, "q1")})
    zero = FormalOperator(CHART)  # the other operand has no component to read
    for index in ((0, 1, 1, 0), (2, 0, 0, 0)):  # a mixed and a pure second derivative
        second = FormalOperator(CHART, {index: Poly.const(CHART, 1)})
        for args in ((first, second), (second, first), (second, second), (zero, second),
                     (second, zero)):
            with pytest.raises(
                ValueError, match=r"^commutator implemented for order <= 1 operators$"
            ):
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
    # (-i*hbar)**2 = -hbar**2, as the first-order kernel applies it to each component of X_p
    squared = _quantised(p, standard_potential(CHART), 2, []).terms
    units = [tuple(int(i == j) for i in range(2 * CHART.n)) for j in range(2 * CHART.n)]
    for idx, x in zip(units, oracles.hamiltonian(p), strict=True):
        s = squared.get(idx, Poly.zero(CHART))
        assert_normal_form(s)
        assert_same_representation(s, x.times_minus_i_hbar().times_minus_i_hbar())
        assert_same_representation(s, fraction_sum_products([(-1, x, Poly.hbar(CHART) ** 2)]))


# the example connections (beta-scaled: Theta = (1 + b1^2) * theta), one induced by a pullback,
# Theta = (3/2) * l * dphi_l, and a scaled connection whose deformation depends on alpha
AB2 = ChartSpec((("a1", "b1"), ("a2", "b2")))
CONNECTIONS = example_connections() | {
    "cylinder-induced": cylinder_setup(Fraction(2, 3)).induced,
    "general-scaled": scaled_connection(AB2, parse_poly("a1*b2 - 3/2*b1^2 + a2", AB2)),
}


@st.composite
def oracle_inputs(draw, observables=lambda chart: polys(3, chart=chart)):
    """A connection of ``CONNECTIONS``, three ``observables`` on its chart, a scalar."""
    conn = CONNECTIONS[draw(st.sampled_from(sorted(CONNECTIONS)))]
    chart = conn.chart
    a, b, c = (draw(observables(chart)) for _ in range(3))
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


def quantise_route(a, conn):
    """op(A) = -i*hbar*X_A + A - Theta(X_A), through the list fields of ``oracles``."""
    X = oracles.hamiltonian(a)
    vec = [x.times_minus_i_hbar() for x in X]
    return first_order(conn.chart, vec, a - oracles.contract(conn.theta.comps, X))


def vector_field_route(a, b, conn):
    """op(A) and the closed form of [op(A), op(B)], through ``oracles``.

    [op(A), op(B)] = -i*hbar * (-i*hbar*X_P - Theta(X_P) - Omega(X_A, X_B) + 2P) with P = {A, B}.
    """
    chart, minus_i_hbar = conn.chart, Poly.minus_i_hbar(conn.chart)
    P = poisson(a, b)
    XP, curvature = oracles.hamiltonian(P), oracles.matrix(conn.omega_curv)
    rest = P.scale(2) - oracles.pair(curvature, oracles.hamiltonian(a), oracles.hamiltonian(b))
    rest = rest - oracles.contract(conn.theta.comps, XP)
    vec = [x * minus_i_hbar * minus_i_hbar for x in XP]
    return quantise_route(a, conn), first_order(chart, vec, rest * minus_i_hbar)


def residual_route(a, conn, i):
    """L_i = op(g) - Omega(X_A, X_{beta_i}) with g = {A, beta_i}, through ``oracles``."""
    chart = conn.chart
    X, Xb = oracles.hamiltonian(a), oracles.hamiltonian(Poly.var(chart, chart.pairs[i][1]))
    g = oracles.pair(oracles.matrix(standard_symplectic(chart)), X, Xb)
    curvature = oracles.pair(oracles.matrix(conn.omega_curv), X, Xb)
    return quantise_route(g, conn) - FormalOperator.from_poly(curvature)


@PROPS
@given(oracle_inputs())
def test_raw_field_route_is_the_vector_field_route(inputs):
    """quantise, commutator_rhs and residual_operator read Hamiltonian fields as raw maps and
    pair them with ``TwoForm._pair_raw``; here as list fields, paired coefficient by coefficient."""
    conn, a, b, _, _ = inputs
    op_a, rhs = vector_field_route(a, b, conn)
    assert quantise(a, conn) == op_a
    assert commutator_rhs(a, b, conn) == rhs
    for i in range(conn.chart.n):
        assert residual_operator(a, conn, i) == residual_route(a, conn, i)


@PROPS
@given(oracle_inputs(sparse_polys))
def test_sparse_observables_agree_with_both_oracles(inputs):
    """Constants, pure-beta and one-pair observables leave most operator slots empty.

    quantise, commutator and commutator_rhs build only the nonzero slots; each
    still equals the ``compose`` difference and the list-field route.
    """
    conn, a, b, _, _ = inputs
    op_a, rhs = vector_field_route(a, b, conn)
    qa, qb = quantise(a, conn), quantise(b, conn)
    assert qa == op_a
    assert commutator(qa, qb) == qa.compose(qb) - qb.compose(qa) == rhs
    assert commutator_rhs(a, b, conn) == rhs


@PROPS
@given(oracle_inputs())
def test_no_kernel_writes_into_an_input(inputs):
    """Every exact kernel leaves its inputs' ``nums`` maps as it found them.

    Each chart's zero Poly is shared, and operators share their coefficient
    Polys, so a kernel that wrote into a map it did not create would change
    other values.
    """
    conn, a, b, c, k = inputs
    chart = conn.chart
    qa, qb = quantise(a, conn), quantise(b, conn)
    shared = [a, b, c, k, Poly.zero(chart), *conn.theta.comps, *conn.omega_curv.comps.values()]
    shared += [*qa.terms.values(), *qb.terms.values()]
    before = [(dict(p.nums), p.den) for p in shared]
    identity = {name: Poly.var(chart, name) for name in chart.coords}
    for result in (
        a + b, a - b, b - a, a * b, a * k, -a, a.substitute(chart, identity),
        _sum_products(chart, [(1, a, b), (-2, c, a)]), _sum_derivations(chart, [(1, a, 1, b)]),
        poisson(a, b), _hamiltonian_raw(a), quantise(a, conn), commutator(qa, qb),
        commutator(qa, FormalOperator(chart)), commutator_rhs(a, b, conn), phase_conjugate(qa, b),
        preserves(a, conn),
    ):
        assert result is not None
    assert [(p.nums, p.den) for p in shared] == before
    assert not Poly.zero(chart).nums


@PROPS
@given(oracle_inputs())
def test_built_operators_hold_no_zero_poly_and_own_their_terms(inputs):
    """``quantise``, ``commutator_rhs`` and ``commutator`` keep their terms as built, unshared."""
    conn, a, b, _, _ = inputs
    qa, qb = quantise(a, conn), quantise(b, conn)
    results = [qa, qb, commutator(qa, qb), commutator(qb, qa), commutator_rhs(a, b, conn),
               commutator_rhs(a, a, conn), quantise(a, conn), qa + qb, -qa]
    for op in results:
        assert all(c.nums for c in op.terms.values())
    assert len({id(op.terms) for op in results}) == len(results)


vector_fields = st.lists(polys(2), min_size=2 * CHART.n, max_size=2 * CHART.n)


@PROPS
@given(vector_fields, vector_fields)
def test_omega_is_the_standard_symplectic_pairing(x, y):
    n, want = CHART.n, Poly.zero(CHART)
    for i in range(n):  # omega(X, Y) = sum_i X[alpha_i] Y[beta_i] - X[beta_i] Y[alpha_i]
        want = want + x[i] * y[n + i] - x[n + i] * y[i]
    assert standard_symplectic(CHART)._pair_raw(oracles.raw(x), oracles.raw(y)) == want


def two_forms_on(chart):
    """Two-forms on ``chart`` with real-constant, complex-constant and polynomial coefficients."""
    coefficients = st.one_of(
        fractions.map(lambda c: Poly.const(chart, c)),  # real constants: folded into the multiplier
        scalars.map(lambda c: Poly.const(chart, c)),
        polys(2, chart=chart),
    )
    slots = [(i, j) for j in range(2 * chart.n) for i in range(j)]
    return st.dictionaries(st.sampled_from(slots), coefficients, max_size=2 * chart.n).map(
        lambda comps: TwoForm(chart, comps)
    )


two_forms = two_forms_on(CHART)


@PROPS
@given(two_forms, vector_fields, vector_fields)
@example(
    TwoForm(CHART, {(0, 2): Poly.const(CHART, Fraction(-1, 2))}),
    [Poly.const(CHART, 1)] + [Poly.zero(CHART)] * 3,
    [Poly.zero(CHART)] * 2 + [Poly.var(CHART, "q1"), Poly.zero(CHART)],
)
def test_pairing_is_the_antisymmetrised_coefficient_sum(form, x, y):
    want = Poly.zero(CHART)
    for (i, j), c in form.comps.items():  # sum_{i<j} c_ij (X_i Y_j - X_j Y_i)
        want = want + c * (x[i] * y[j] - x[j] * y[i])
    assert form._pair_raw(oracles.raw(x), oracles.raw(y)) == want


def outcome(f, *args):
    """``f(*args)``, or the type of the exception it raised."""
    try:
        return f(*args)
    except ChartError as exc:
        return type(exc)


@PROPS
@given(every_chart.flatmap(lambda c: st.tuples(two_forms_on(c), small_or_wide_polys(c))))
def test_beta_column_read_is_the_pairing_with_x_beta(inputs):
    # X_{beta_i} is a constant unit field, so the pairing reads one column of the form
    form, a = inputs
    chart, x = form.chart, _hamiltonian_raw(a)
    for i, (_, beta) in enumerate(chart.pairs):
        want = outcome(form._pair_raw, x, _hamiltonian_raw(Poly.var(chart, beta)))
        got = outcome(form._pair_beta, x, i)
        if isinstance(want, Poly):
            assert_same_representation(got, want)
        else:
            assert got is want


@PROPS
@given(polys(), polys())
def test_poisson_bracket_is_the_hamiltonian_derivative(a, b):
    # {A, B} = X_A(B): the sign convention, stated without omega
    assert poisson(a, b) == oracles.act(oracles.hamiltonian(a), b)


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


TOKENS = ["p1", "q2", "hbar", "i", "1", "2", "9", "0", ".", "+", "-", "*", "/", "^", "(", ")", " "]
ATOMS = ["p1", "q2", "hbar", "i", "2", "9", "19", "3000", "0.5", "(p1+1)", "(q2-i*hbar)"]
token_strings = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=14).map("".join),  # mostly malformed
    st.tuples(  # well formed: atom (op atom)*, so the semantic rules and the power bounds decide
        st.sampled_from(ATOMS),
        st.lists(st.tuples(st.sampled_from("+-*/^"), st.sampled_from(ATOMS)), max_size=4),
    ).map(lambda t: t[0] + "".join(op + atom for op, atom in t[1])),
    st.text(),  # any characters, Unicode digits and symbols among them
)


@settings(PROPS, max_examples=200)  # cheap examples; enough of them reach a power bound
@given(token_strings)
@example("2^3^30")
@example("(p1+1)^3000")
@example("\u00b2")  # a Unicode digit that int() refuses
def test_any_token_string_parses_or_is_refused(text):
    # random text ends in a Poly that prints and parses back, or in an input error
    # (ExprSyntaxError, or ChartError for an exponent past the packed-key limit)
    try:
        p = parse_poly(text, CHART)
    except (ExprSyntaxError, ChartError):
        return
    assert parse_poly(str(p), CHART) == p


small_expressions = st.recursive(  # nested sums, products, quotients and small powers
    st.sampled_from(["p1", "q2", "hbar", "i", "0", "2", "19", "3000", "0.5", "7/3"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(inner, st.sampled_from("0123")).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, st.sampled_from(["3", "(1+i)", "0.25", "(2-3*i)/5"])).map("/".join),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=8,
)


@settings(PROPS, max_examples=200)
@given(small_expressions)
@example("(p1-q2/3)^4")  # the norm, not terms times the largest part, bounds the power
@example("(2-3*i)^7/(1+i)")
@example("(p1+q2+hbar)*(2-p1)")  # six terms from three and two
@example("p1/2+q2/3")  # the common denominator is 6
def test_size_estimate_bounds_the_parsed_poly(text):
    # the parser's estimate is an upper bound: at least as many terms, and a norm and
    # denominator that bound the normalised Poly's, so that its bit height bounds the Poly's
    node = _Parser(text, CHART).parse()
    if node.work > 50_000:  # sound at any size; evaluated only where that is cheap
        return
    p = node.build()
    assert p == parse_poly(text, CHART)
    assert len(p.nums) <= node.terms
    assert node.den % p.den == 0
    norm = sum(abs(re) + abs(im) for re, im in p.nums.values())
    assert norm * (node.den // p.den) <= node.norm
    height = max([abs(re) + abs(im) for re, im in p.nums.values()] + [p.den])
    assert height.bit_length() - 1 <= node.bits


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

"""Independent oracles for the exact layer, on plain lists of Polys.

A field or a one-form is a list of 2n Polys in coordinate order, and a two-form
its 2n x 2n antisymmetric coefficient matrix.  Derivatives are ``Poly.partial``
and two-form coefficients ``TwoForm.component``: nothing here runs the raw-map
kernels or ``FormalOperator.compose``, and nothing is validated.
"""

from functools import reduce
from operator import add

from pseudoquant.symcore import Poly


def _total(polys):
    return reduce(add, polys)


def hamiltonian(A):
    """X_A = sum_i (dA/dalpha_i) d/dbeta_i - (dA/dbeta_i) d/dalpha_i."""
    alphas, betas = zip(*A.chart.pairs)
    return [-A.partial(b) for b in betas] + [A.partial(a) for a in alphas]


def act(X, f):
    """The field X on a function: X(f) = sum_j X[j] * df/dx_j."""
    return _total(x * f.partial(name) for x, name in zip(X, f.chart.coords))


def lie_bracket(X, Y):
    """[X, Y][j] = X(Y[j]) - Y(X[j])."""
    return [act(X, y) - act(Y, x) for x, y in zip(X, Y)]


def contract(theta, X):
    """theta(X) = sum_j theta[j] * X[j]."""
    return _total(t * x for t, x in zip(theta, X))


def matrix(form):
    """A ``TwoForm``'s coefficient matrix: entry [i][j] is the coefficient of dx_i ^ dx_j."""
    m = range(2 * form.chart.n)
    return [[form.component(i, j) for j in m] for i in m]


def pair(w, X, Y):
    """w(X, Y) = sum_{i,j} w[i][j] * X[i] * Y[j]."""
    m = range(len(w))
    return _total(w[i][j] * X[i] * Y[j] for i in m for j in m)


def wedge(a, b):
    """(a ^ b)[i][j] = a[i] b[j] - a[j] b[i]."""
    m = range(len(a))
    return [[a[i] * b[j] - a[j] * b[i] for j in m] for i in m]


def pullback(F, w):
    """The two-form w pulled back along the map F (a ``SmoothMap``).

    Entry [k][l] is sum_{i,j} w[i][j](F) * dF_i/dx_k * dF_j/dx_l.
    """
    src, mapping = F.source, F.mapping()
    wF = [[c.substitute(src, mapping) for c in row] for row in w]
    dF = [[c.partial(x) for x in src.coords] for c in F.comps]
    m, s = range(len(w)), range(2 * src.n)
    return [[_total(wF[i][j] * dF[i][k] * dF[j][l] for i in m for j in m) for l in s] for k in s]


def apply(op, f):
    """The operator on a function: sum of c * D^idx f over its terms, each D a ``Poly.partial``."""
    out = Poly.zero(f.chart)
    for idx, c in op.terms.items():
        d = f
        for name, k in zip(f.chart.coords, idx):
            for _ in range(k):
                d = d.partial(name)
        out = out + c * d
    return out


def raw(X):
    """A list field as the ``(nums, den)`` maps that ``TwoForm._pair_raw`` reads."""
    return [(x.nums, x.den) for x in X]

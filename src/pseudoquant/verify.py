"""Built-in verification battery behind the ``verify-paper`` CLI command.

Runs every anchored check of the package against its independent oracles
and reports one line per check.  Statuses:

- ``pass``: the computed value matches the anchored claim exactly (symbolic
  checks) or within the stated tolerance (numeric checks).
- ``flagged-discrepancy``: a documented item where the source material's
  stated value disagrees with the exact computation; both values are
  printed, neither is altered.
- ``fail``: anything else.

Each check declares its id and anchor once, through ``_check``, which also
registers it in ``ALL_CHECKS``; its body returns ``(status, details)``.
Checks of the numeric layers import ``bks``, ``bohrsommerfeld`` and
``dynamics`` in their bodies, keeping this import light.  Acceptance
criteria 01-04, 06, 07, 10 and 11 read this battery; 05, 08 and 09 run their
own instances.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from fractions import Fraction

from .polarisation import (
    Polarisation,
    classify_monomials,
    cohomologous_residual_operator,
    flat_action,
    preserves,
    residual_operator,
    scaled_connection,
)
from .prequant import (
    ConnectionData,
    FormalOperator,
    PullbackSetup,
    commutator,
    commutator_rhs,
    phase_conjugate,
    pullback_quantise,
    quantise,
    theorem_commutator,
)
from .symcore import (
    ChartSpec,
    OneForm,
    Poly,
    Scalar,
    SmoothMap,
    _Record,
    exterior_d,
    poisson,
    standard_chart,
    standard_potential,
)

PASS = "pass"
FLAG = "flagged-discrepancy"
FAIL = "fail"


class CheckResult(_Record):
    """One line of the verification battery."""

    __slots__ = ("check_id", "anchor", "status", "details")

    def line(self) -> str:
        return f"[{self.status:>20}] {self.check_id}: {self.anchor} -- {self.details}"


ALL_CHECKS = []  # every check, in definition order, which is the report order


def _check(check_id: str, anchor: str):
    """Turn a body returning ``(status, details)`` into a check returning a CheckResult.

    The check is appended to ``ALL_CHECKS``.
    """

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            return CheckResult(check_id, anchor, *body(*args, **kwargs))

        ALL_CHECKS.append(check)
        return check

    return decorate


def _canonical_pair(conn: ConnectionData, i: int, j: int) -> FormalOperator:
    """[op(p_i), op(q_j)] under ``conn``."""
    chart = conn.chart
    return commutator(
        quantise(Poly.var(chart, f"p{i}"), conn), quantise(Poly.var(chart, f"q{j}"), conn)
    )


def random_poly(chart: ChartSpec, rng: random.Random, max_degree: int = 3, terms: int = 4) -> Poly:
    """Random exact polynomial in the chart coordinates (no stray hbar powers)."""
    nv = len(chart.variables)
    out = Poly.zero(chart)
    for _ in range(rng.randint(1, terms)):
        exp = [0] * nv
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(1, nv)] += 1
        coeff = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       Fraction(rng.randint(-2, 2), 1))
        out = out + Poly(chart, {tuple(exp): coeff})
    return out


# -- individual checks ---------------------------------------------------------


@_check("canonical-commutators", "standard connection reproduces the canonical relations")
def check_canonical():
    for n in (1, 2, 3):
        chart = standard_chart(n)
        conn = ConnectionData.standard(chart)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = _canonical_pair(conn, i, j)
                want = Poly.minus_i_hbar(chart) if i == j else Poly.zero(chart)
                if got != FormalOperator.from_poly(want):
                    return FAIL, f"[p{i},q{j}] on the {n}-dof chart gave {got}"
    return PASS, "[p_i, q_j] = -i*hbar*delta_ij exactly for n = 1..3"


def folded_connection(chart: ChartSpec) -> ConnectionData:
    p1 = Poly.var(chart, "p1")
    entries = {"dq1": p1 * p1 * Poly.const(chart, Fraction(1, 2))}
    for i in range(2, chart.n + 1):
        entries[f"dq{i}"] = Poly.var(chart, f"p{i}")
    return ConnectionData(OneForm.from_dict(chart, entries))


@_check("folded-commutator", "folded potential gives a momentum-dependent canonical commutator")
def check_folded():
    chart = standard_chart(3)
    conn = folded_connection(chart)
    for i in range(1, 4):
        for j in range(1, 4):
            if (i, j) == (1, 1):
                want = Poly.minus_i_hbar(chart) * (2 - Poly.var(chart, "p1"))
            else:
                want = Poly.minus_i_hbar(chart) if i == j else Poly.zero(chart)
            got = _canonical_pair(conn, i, j)
            if got != FormalOperator.from_poly(want):
                return FAIL, f"[p{i},q{j}] gave {got}"
    return PASS, "[p1,q1] = -i*hbar*(2 - p1); all other pairs canonical"


def cylinder_setup(lam: Fraction) -> PullbackSetup:
    """The squeezed cylinder z = l / lam, phi_z = phi_l with the standard target connection."""
    src = ChartSpec((("l", "phi_l"),))
    tgt = ChartSpec((("z", "phi_z"),))
    m = SmoothMap(src, tgt, [Poly.var(src, "l").scale(1 / lam), Poly.var(src, "phi_l")])
    return PullbackSetup(m, ConnectionData.standard(tgt))


@_check("cylinder-family", "squeezed-cylinder pullback commutator over rational squeeze factors")
def check_cylinder_rational():
    lines = []
    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
        s = cylinder_setup(lam)
        tgt = s.map.target
        z, phi = Poly.var(tgt, "z"), Poly.var(tgt, "phi_z")
        got = theorem_commutator(z, phi, s)
        structural = commutator(pullback_quantise(z, s), pullback_quantise(phi, s))
        coeff = (2 * lam - 1) / (lam * lam)
        want = FormalOperator.from_poly(Poly.minus_i_hbar(s.map.source).scale(coeff))
        if got != want or structural != want:
            return FAIL, f"lambda = {lam}: closed-form {got}, structural {structural}"
        lines.append(f"lambda={lam}: -i*hbar*({coeff})")
    return PASS, "; ".join(lines) + " (0 at 1/2, -i*hbar at 1)"


@_check("cylinder-sign-reversal", "commutator sign reverses at the irrational critical squeeze factor")
def check_cylinder_irrational():
    s = cylinder_setup(Fraction(math.sqrt(2) - 1))
    tgt = s.map.target
    got = theorem_commutator(Poly.var(tgt, "z"), Poly.var(tgt, "phi_z"), s)
    val = got.is_multiplication_by().evaluate({"l": 0.7, "phi_l": 0.1}, hbar=1.0)
    err = abs(val - 1j)
    return (PASS if err < 1e-12 else FAIL,
            f"value {val:.15g}, distance from +i*hbar (hbar=1): {err:.2e}")


def example_connections() -> dict[str, ConnectionData]:
    pq2 = standard_chart(2)
    coupled = ConnectionData(
        standard_potential(pq2)
        + OneForm.from_dict(pq2, {"dq2": Poly.var(pq2, "q1")})
    )
    ab1 = ChartSpec((("a1", "b1"),))
    scaled = scaled_connection(ab1, Poly.var(ab1, "b1") ** 2)
    return {
        "standard-2dof": ConnectionData.standard(pq2),
        "folded-3dof": folded_connection(standard_chart(3)),
        "position-coupled": coupled,
        "beta-scaled": scaled,
    }


@_check("commutator-oracle", "structural commutator equals the closed-form expression")
def check_structural_vs_closed_form(seed: int = 20260823):
    rng = random.Random(seed)
    connections = example_connections()
    for name, conn in connections.items():
        for _ in range(200):
            A = random_poly(conn.chart, rng)
            B = random_poly(conn.chart, rng)
            if commutator(quantise(A, conn), quantise(B, conn)) != commutator_rhs(A, B, conn):
                return FAIL, f"mismatch on connection {name}: A={A}, B={B}"
    total = 200 * len(connections)
    return PASS, f"{total} random pairs across {len(connections)} connections, exact equality"


@_check("gauge-shift", "adding an exact form to the potential is a phase conjugation")
def check_gauge_shift():
    rng = random.Random(777)
    chart = standard_chart(2)
    theta = standard_potential(chart)
    for _ in range(25):
        g = random_poly(chart, rng)
        A = random_poly(chart, rng)
        shifted = ConnectionData(theta + exterior_d(g))
        if phase_conjugate(quantise(A, shifted), g) != quantise(A, ConnectionData(theta)):
            return FAIL, f"g={g}, A={A}"
    return PASS, "25 random (A, g) pairs conjugate back exactly; curvature unchanged"


@_check("preservation-standard", "standard connection preserves exactly the momentum-linear monomials")
def check_preservation_standard():
    for (m, n), rep in classify_monomials(3, 3, case="standard").items():
        if rep.preserves != (m <= 1):
            return FAIL, f"alpha^{m} beta^{n}: got {rep.preserves}, expected {m <= 1}"
        if rep.preserves != rep.observable.partial("a1").partial("a1").is_zero():
            return FAIL, f"verdict disagrees with the second-derivative criterion at ({m},{n})"
    return PASS, "4x4 monomial grid: preserves iff m <= 1, matching d^2A/dalpha^2 = 0"


@_check("preservation-basics", "constants and position functions always preserve")
def check_preservation_basics():
    ab1 = ChartSpec((("a1", "b1"),))
    conns = {
        "standard": ConnectionData.standard(ab1),
        "beta-scaled": scaled_connection(ab1, Poly.var(ab1, "b1") ** 2),
        "mixed-scaled": scaled_connection(ab1, Poly.var(ab1, "a1") * Poly.var(ab1, "b1")),
    }
    for name, conn in conns.items():
        for A in (Poly.const(ab1, 7), Poly.var(ab1, "b1"), Poly.var(ab1, "b1") ** 3):
            rep = preserves(A, conn)
            if not rep.preserves:
                return FAIL, f"{A} failed under {name}: residuals {rep.residuals}"
    return PASS, "constants and beta powers preserve under standard and scaled connections"


@_check("general-scaled-failure", "nonzero scaling deformations break preservation of the momentum")
def check_general_scaled_failure():
    ab1 = ChartSpec((("a1", "b1"),))
    alpha = Poly.var(ab1, "a1")
    beta = Poly.var(ab1, "b1")
    deformations = [beta, alpha, alpha * beta, beta**2, alpha**2]
    for f in deformations:
        if preserves(alpha, scaled_connection(ab1, f)).preserves:
            return FAIL, f"f = {f} unexpectedly preserves"
    if not preserves(alpha, scaled_connection(ab1, Poly.zero(ab1))).preserves:
        return FAIL, "f = 0 should preserve"
    return PASS, f"{len(deformations)} nonzero deformations fail, f = 0 preserves"


@_check("cohomologous-residual", "simplified residual with a curvature primitive matches the direct one")
def check_cohomologous():
    ab1 = ChartSpec((("a1", "b1"),))
    a1, b1 = Poly.var(ab1, "a1"), Poly.var(ab1, "b1")
    for f in (b1, b1**2):
        conn = scaled_connection(ab1, f)
        gamma = standard_potential(ab1).scale(-f)
        P = Polarisation(ab1, conn)
        for A in (a1, a1**2, a1 * b1):
            direct = residual_operator(A, conn, 0)
            simplified = cohomologous_residual_operator(A, conn, P, gamma, 0)
            if flat_action(direct, P) != flat_action(simplified, P):
                return FAIL, f"A = {A}, f = {f}"
    return PASS, "direct and primitive-based flat-section residuals agree exactly"


@_check("leading-term-divergence", "momentum deformations always produce a divergent leading term")
def check_divergence():
    from . import bks
    for n in range(1, 51):
        rep = bks.classify_term(n, 0, 0)
        if rep.classification != bks.DIVERGES or rep.exponent >= 0:
            return FAIL, f"n = {n}: exponent {rep.exponent}"
    return PASS, "exponent(n, 0, 0) < 0 for all n = 1..50 (exact rationals)"


@_check("critical-exponent-identity", "the critical series index zeroes the tau exponent")
def check_exponent_identity():
    from . import bks
    for n in range(1, 21):
        for m in range(6):
            e = Fraction(-1, 2) + m - Fraction(1, 2 * n)  # the paper's formula, written out
            if bks.exponent(n, m, 0) != e or e + bks.critical_j(n, m) * Fraction(n, n + 2) != 0:
                return FAIL, f"n={n}, m={m}"
    return PASS, "e(n, m, j') = 0 exactly for n <= 20, m <= 5"


@_check("oscillatory-oracle", "closed-form oscillatory moments match regulated quadrature")
def check_oscillatory_oracle():
    from . import bks
    cases = [(0, 2, 1.0), (1, 2, 1.0), (0, 4, 1.0), (2, 3, 0.5), (1, 5, 2.0)]
    worst = 0.0
    for j, k, a in cases:
        analytic = bks.oscillatory_moment(j, k, a)
        quad = bks.oscillatory_moment_quadrature(j, k, a)
        worst = max(worst, abs(analytic - quad) / abs(analytic))
    return (PASS if worst < 1e-8 else FAIL,
            f"worst relative deviation {worst:.2e} over {len(cases)} (j,k,a) cases")


@_check("position-pairing-law", "position deformation yields the inverse-three-halves kinetic profile")
def check_position_pairing():
    from . import bks
    hbar = 1.0
    betas = [k / 8 for k in range(17)]
    result = bks.position_pairing(2, hbar)
    ref = -(hbar**2) / 2.0
    worst = 0.0
    for b in betas:  # the paper's weight, written out here rather than read from bks
        scaled = result.effective_coefficient(b) * (1.0 + 2.0 * b**2) ** 1.5
        worst = max(worst, abs(scaled - ref) / abs(ref))
    return (PASS if worst < 1e-6 and result.converges else FAIL,
            f"coefficient(beta)*(1+2*beta^2)^(3/2) constant within {worst:.2e}")


@_check("undeformed-recovery", "undeformed pairing reproduces the free evolution coefficients")
def check_prefactor():
    from . import bks
    hbar = 1.0
    res = bks.position_pairing(0, hbar)
    want_pref = math.sqrt(2 * math.pi * hbar) * cmath.exp(1j * math.pi / 4)
    # lambda = 0 term: tau-independent sqrt(pi/a0)*e^{i pi/4}, a0 = 1/(2*hbar), times
    # exp(-i V tau / hbar); the tau derivative extracts -iV/hbar.
    a0 = 1.0 / (2.0 * hbar)
    lambda0_weight = math.sqrt(math.pi / a0) * cmath.exp(1j * math.pi / 4)
    potential_unit = 1j * hbar * (-1.0) * (-1j / hbar) * lambda0_weight / (-res.normalization)
    worst = max(
        abs(res.effective_coefficient(0.0) - (-(hbar**2) / 2)) / (hbar**2 / 2),
        abs(potential_unit - 1.0),
        abs(res.normalization - want_pref) / abs(want_pref),
    )
    ok = worst < 1e-8 and abs(res.normalization - want_pref) < 1e-8
    return (PASS if ok else FAIL,
            f"kinetic -hbar^2/2, unit potential, prefactor: worst error {worst:.2e}")


@_check("deformed-evolution", "free regression and weighted-norm conservation of the deformed flow")
def check_dynamics():
    import numpy as np  # numpy and scipy's compiled LAPACK load only for this check

    from . import dynamics

    hbar, sigma, p0, q0 = 1.0, 1.2, 0.6, 0.0
    grid = dynamics.Grid1D(-24.0, 24.0, 1024)
    cfg = dynamics.EvolutionConfig(0, hbar, 2e-3, steps=250)
    state = dynamics.gaussian_state(grid, q0, p0, sigma, hbar)
    final = dynamics.evolve(state, cfg)
    t = cfg.dt * cfg.steps
    exact = dynamics.free_gaussian_exact(grid, q0, p0, sigma, hbar, t)
    width = dynamics.free_gaussian_width(sigma, hbar, t)
    width_err = abs(dynamics.width_q(final) - width) / width
    point_err = float(np.max(np.abs(final.psi - exact.psi)))

    grid2 = dynamics.Grid1D(-12.0, 12.0, 768)
    cfg2 = dynamics.EvolutionConfig(2, hbar, 1e-3, steps=300)
    state2 = dynamics.gaussian_state(grid2, 0.0, 0.5, 1.0, hbar)
    weight = (1.0 + 2.0 * grid2.q**2) ** 1.5  # the paper's weight, not read from dynamics

    def weighted_norm(s):
        return math.sqrt(float((weight * s.density).sum() * grid2.dq))

    w0 = weighted_norm(state2)
    l0 = dynamics.l2_norm(state2)
    final2 = dynamics.evolve(state2, cfg2)
    w_drift = abs(weighted_norm(final2) - w0) / w0
    l_drift = abs(dynamics.l2_norm(final2) - l0) / l0
    ok = width_err < 1e-3 and point_err < 1e-3 and w_drift < 1e-8 and l_drift > 1e-7
    return (PASS if ok else FAIL,
            f"free width err {width_err:.2e}, pointwise {point_err:.2e}; "
            f"weighted drift {w_drift:.2e}, plain L2 drift {l_drift:.2e}")


@_check("lattice-counts", "integral-point counts for the standard and folded sphere charts")
def check_lattice_counts():
    from . import bohrsommerfeld
    for E in range(1, 11):
        if bohrsommerfeld.standard_dim(E) != 2 * E - 1:
            return FAIL, f"standard dim wrong at E = {E}"
    for E in range(1, 51):
        # l is admissible iff E^2 - l^2 is a positive even integer; compared exactly
        got = sorted((p.sign, p.l_squared) for p in bohrsommerfeld.folded_points(E))
        brute = sorted(
            (s, ls)
            for ls in range(E * E)
            if (E * E - ls) % 2 == 0
            for s in ((1, -1) if ls else (0,))
        )
        if got != brute:
            return FAIL, f"folded mismatch at E = {E}"
    return PASS, "standard dims E <= 10 and folded enumeration vs brute force E <= 50"


# -- documented discrepancies --------------------------------------------------


@_check("coupled-positions-commutator",
        "position-coupling potential: stated coupled commutator vs exact computation")
def flag_position_coupling():
    chart = standard_chart(2)
    theta = standard_potential(chart)
    conn_q = ConnectionData(theta + OneForm.from_dict(chart, {"dq2": Poly.var(chart, "q1")}))
    conn_p = ConnectionData(theta + OneForm.from_dict(chart, {"dp2": Poly.var(chart, "p1")}))
    q1, q2 = Poly.var(chart, "q1"), Poly.var(chart, "q2")
    got_q = commutator(quantise(q1, conn_q), quantise(q2, conn_q)).is_multiplication_by()
    got_p = commutator(quantise(q1, conn_p), quantise(q2, conn_p)).is_multiplication_by()
    expected = got_q == Poly.zero(chart) and got_p == -Poly.minus_i_hbar(chart)
    return (FLAG if expected else FAIL,
            f"stated value: i*hbar; computed with the position coupling: {got_q}; "
            f"computed with the momentum coupling instead: {got_p}")


@_check("paired-shift-example",
        "paired-shift potential: stated curvature and formal commutator vs exact computation")
def flag_paired_shift_example():
    chart = standard_chart(1)
    p, q = Poly.var(chart, "p1"), Poly.var(chart, "q1")
    f, g = p, q  # concrete witnesses with {f, g} = 1
    half = Poly.const(chart, Fraction(1, 2))
    conn = ConnectionData(OneForm.from_dict(chart, {"dq1": half * p - f, "dp1": -(half * q - g)}))
    omega_coeff = conn.omega_curv.component(0, 1)          # coefficient of dp1^dq1
    stated_omega = poisson(f, g)                           # claimed coefficient {f,g}
    com = commutator(quantise(p, conn), quantise(q, conn)).is_multiplication_by()
    formal = com.div_minus_i_hbar()
    stated_formal = Poly.const(chart, 2) - poisson(f, g)
    expected = (
        omega_coeff == Poly.const(chart, 1) - f.partial("p1") - g.partial("q1")
        and formal == Poly.const(chart, 1) + f.partial("p1") + g.partial("q1")
    )
    return (FLAG if expected else FAIL,
            f"with f = p1, g = q1: computed curvature coefficient {omega_coeff} "
            f"(stated: {stated_omega}); computed formal commutator {formal} "
            f"(stated: {stated_formal})")


@_check("exponent-cross-check", "stated tau exponent vs independent substitution-based derivation")
def flag_exponent_cross_check():
    from . import bks
    diffs = [f"n={n}: primary {bks.exponent(n, 0, 0)}, independent {bks.alt_exponent(n, 0, 0)}"
             for n in (1, 2, 3)]
    agree_at_2 = bks.exponent(2, 0, 0) == bks.alt_exponent(2, 0, 0)
    differs_elsewhere = bks.exponent(1, 0, 0) != bks.alt_exponent(1, 0, 0)
    verdict_stable = all(
        (bks.exponent(n, 0, 0) < 0) and (bks.alt_exponent(n, 0, 0) < 0) for n in range(1, 51)
    )
    return (FLAG if agree_at_2 and differs_elsewhere and verdict_stable else FAIL,
            "; ".join(diffs) + "; formulas agree only at n = 2, divergence verdict holds for both")


def run_all(seed: int | None = None) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        if check is check_structural_vs_closed_form and seed is not None:
            results.append(check(seed=seed))
        else:
            results.append(check())
    return results


__all__ = ["CheckResult", "FAIL", "FLAG", "PASS", "random_poly", "run_all"]

"""The four benchmark workloads.

Each workload builds, from ``(seed, pass index)``, a list of operations.  An
operation's ``run`` is the timed part; ``check`` (untimed, may be ``None``)
compares its result with an independent oracle, and ``render`` gives the
printed output whose digest is compared at the default seed.  A failed
check raises ``Mismatch``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import gaussq

ROOT = Path(__file__).resolve().parent.parent


class Mismatch(Exception):
    """An operation's result disagrees with its oracle."""


class Op:
    __slots__ = ("label", "run", "check", "render")

    def __init__(self, label, run, check=None, render=str):
        self.label, self.run, self.check, self.render = label, run, check, render


def pass_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def fmt(x: float) -> str:
    """The CLI's float format: shortest text that round-trips a float64."""
    return format(float(x), ".17g")


def random_poly(pq, chart, rng, max_degree, max_terms, num=4, den=3, im=2, im_den=1,
                min_terms=1, min_degree=0):
    """Seeded observable in the chart coordinates (no hbar), built term by term."""
    nv = 1 + 2 * len(chart.pairs)
    terms: dict[tuple, tuple] = {}
    for _ in range(rng.randint(min_terms, max_terms)):
        exp = [0] * nv
        for _ in range(rng.randint(min_degree, max_degree)):
            exp[rng.randrange(1, nv)] += 1
        re = Fraction(rng.randint(-num, num), rng.randint(1, den))
        ii = Fraction(rng.randint(-im, im), rng.randint(1, im_den))
        old = terms.get(tuple(exp), (0, 0))
        terms[tuple(exp)] = (old[0] + re, old[1] + ii)
    poly = pq.Poly(chart, {e: pq.Scalar(re, ii) for e, (re, ii) in terms.items()})
    return poly if poly.terms else pq.Poly.const(chart, 1)


class Workload:
    name = ""
    PROBE = "arith"  # the host-speed probe that matches this workload's work
    # Operations per tail window: every run fills at least one, so the tail
    # percentile (stats.tail_percentile of this size) is the same on every run.
    TAIL_WINDOW = 200

    def __init__(self, seed: int, inprocess: bool = True):
        self.seed = seed
        self.inprocess = inprocess

    def setup(self) -> None:
        """Import the program modules the workload needs."""

    def prepare(self) -> None:
        """Build the fixed data every pass shares."""

    def make_pass(self, k: int) -> list[Op]:
        raise NotImplementedError

    def cpu_ns(self) -> int:
        return time.process_time_ns()


# -- exact-sweep ----------------------------------------------------------------


class ExactSweep(Workload):
    """Many small exact commutator checks on the four example connections."""

    name = "exact-sweep"
    PAIRS_PER_CONNECTION = 50
    DEGREE4_PAIRS = 25

    def setup(self):
        import pseudoquant as pq
        from pseudoquant import prequant, verify

        self.pq, self.prequant, self.verify = pq, prequant, verify

    def prepare(self):
        self.connections = self.verify.example_connections()

    def pair_op(self, label, A, B, conn):
        pre = self.prequant

        def run():
            lhs = pre.commutator(pre.quantise(A, conn), pre.quantise(B, conn))
            rhs = pre.commutator_rhs(A, B, conn)
            if lhs != rhs:
                raise Mismatch(f"{label}: structural commutator differs from commutator_rhs")
            return lhs

        return Op(label, run)

    def make_pass(self, k):
        rng = pass_rng(self.name, self.seed, k)
        ops = []
        for i in range(self.PAIRS_PER_CONNECTION):
            for name, conn in self.connections.items():
                A = random_poly(self.pq, conn.chart, rng, 3, 4)
                B = random_poly(self.pq, conn.chart, rng, 3, 4)
                ops.append(self.pair_op(f"{name}#{i}", A, B, conn))
        folded = self.connections["folded-3dof"]
        for i in range(self.DEGREE4_PAIRS):
            A = random_poly(self.pq, folded.chart, rng, 4, 4)
            B = random_poly(self.pq, folded.chart, rng, 4, 4)
            ops.insert(9 * i + 4, self.pair_op(f"folded-3dof-deg4#{i}", A, B, folded))
        return ops


# -- exact-swell ------------------------------------------------------------------


class ExactSwell(Workload):
    """Few exact operations on large term maps with tall coefficients."""

    name = "exact-swell"
    TAIL_WINDOW = 50

    def setup(self):
        import pseudoquant as pq
        from pseudoquant import polarisation, prequant, verify

        self.pq, self.prequant, self.pol, self.verify = pq, prequant, polarisation, verify

    def prepare(self):
        pq = self.pq
        self.folded = self.verify.folded_connection(pq.standard_chart(3))
        self.ab = pq.ChartSpec((("a1", "b1"),))
        self.src = pq.ChartSpec((("l", "phi_l"),))
        self.tgt = pq.ChartSpec((("z", "phi_z"),))

    # (a) large observables on the folded chart
    def big_pair_op(self, rng, i):
        """Degree 6, 7 or 8 with 8, 9 or 10 terms (by i), each of degree 4 and up."""
        chart, conn, pre = self.folded.chart, self.folded, self.prequant
        A, B = (random_poly(self.pq, chart, rng, 6 + i % 3, 8 + i % 3, num=99, den=99, im=99,
                            im_den=99, min_terms=8 + i % 3, min_degree=4) for _ in range(2))

        def run():
            lhs = pre.commutator(pre.quantise(A, conn), pre.quantise(B, conn))
            if lhs != pre.commutator_rhs(A, B, conn):
                raise Mismatch(f"big pair {i}: structural commutator differs from commutator_rhs")
            return lhs

        return Op(f"big-pair#{i}", run)

    # (b) pullback through a nonlinear polynomial map
    def pullback_op(self, rng, i):
        """Fixed monomials, seeded rational coefficients, so every pullback costs alike."""
        pq, pre = self.pq, self.prequant
        src, tgt = self.src, self.tgt

        def c():
            return Fraction(rng.randint(1, 7) * rng.choice((-1, 1)), rng.randint(1, 5))

        l, phi = pq.Poly.var(src, "l"), pq.Poly.var(src, "phi_l")
        z, phz = pq.Poly.var(tgt, "z"), pq.Poly.var(tgt, "phi_z")
        z_img = l.scale(Fraction(rng.randint(1, 5), rng.randint(1, 3))) + (l * l).scale(c()) + \
            (phi * phi).scale(c())
        phi_img = phi + (l * phi).scale(c())
        setup = pre.PullbackSetup(pq.SmoothMap(src, tgt, [z_img, phi_img]),
                                  pq.ConnectionData.standard(tgt))
        A = (z * z).scale(c()) + (z * phz).scale(c()) + phz.scale(c())
        B = (phz * phz).scale(c()) + (z * phz).scale(c()) + z.scale(c())
        point = gaussq.random_point(("hbar", "l", "phi_l"), rng)

        def run():
            structural = pre.commutator(pre.pullback_quantise(A, setup),
                                        pre.pullback_quantise(B, setup))
            if structural != pre.theorem_commutator(A, B, setup):
                raise Mismatch(f"pullback {i}: structural commutator differs from theorem_commutator")
            pulled = A.substitute(src, {"z": z_img, "phi_z": phi_img})
            image = {"hbar": point["hbar"], "z": gaussq.evaluate(z_img, point),
                     "phi_z": gaussq.evaluate(phi_img, point)}
            if gaussq.evaluate(pulled, point) != gaussq.evaluate(A, image):
                raise Mismatch(f"pullback {i}: substitute disagrees with the evaluator")
            return structural

        return Op(f"pullback#{i}", run)

    # (c) preservation grid under a scaled connection
    def grid_op(self, rng, i, case):
        pq, pol = self.pq, self.pol
        ab = self.ab
        names = ("b1",) if case == "polarised-scaled" else ("a1", "b1")
        f = pq.Poly.zero(ab)
        for _ in range(rng.randint(1, 3)):
            mono = pq.Poly.const(ab, Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 2)):
                mono = mono * pq.Poly.var(ab, rng.choice(names))
            f = f + mono
        if f.is_zero():
            f = pq.Poly.var(ab, "b1")
        m_max = n_max = 8

        def run():
            table = pol.classify_monomials(m_max, n_max, f, case, ab)
            conn = pol.scaled_connection(ab, f)
            P = pol.Polarisation(ab, conn)
            gamma = pq.standard_potential(ab).scale(-f)
            alpha, beta = pq.Poly.var(ab, "a1"), pq.Poly.var(ab, "b1")
            for (m, n), rep in table.items():
                A = alpha**m * beta**n
                simplified = pol.cohomologous_residual_operator(A, conn, P, gamma, 0)
                want = tuple((0, k, c) for k, c in pol.flat_action(simplified, P).nonzero_coeffs())
                if rep.residuals != want:
                    raise Mismatch(f"grid {i} ({case}) cell {(m, n)}: residual routes differ")
            return table

        def render(table):
            rows = [f"# case={case} deformation={f}", "m,n,preserves,residual_count"]
            rows += [f"{m},{n},{str(rep.preserves).lower()},{len(rep.residuals)}"
                     for (m, n), rep in sorted(table.items())]
            return "\n".join(rows)

        return Op(f"grid-{case}#{i}", run, render=render)

    # (d) binary powering, checked by the independent evaluator
    def pow_op(self, rng, i, k):
        """P**k for a trinomial in three disjoint coordinate monomials."""
        pq, chart = self.pq, self.folded.chart
        coords = rng.sample(range(1, 7), 5)
        exps = ((coords[0],), (coords[1], coords[2]), (coords[3], coords[4]))
        terms = {}
        for idx in exps:
            e = [0] * 7
            for j in idx:
                e[j] += 1
            terms[tuple(e)] = pq.Scalar(Fraction(rng.randint(1, 9), rng.randint(1, 7)),
                                        Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        P = pq.Poly(chart, terms)
        point = gaussq.random_point(gaussq.variables(P), rng)

        def run():
            Q = P**k
            if gaussq.evaluate(Q, point) != gaussq.power(gaussq.evaluate(P, point), k):
                raise Mismatch(f"pow {i}: P**{k} disagrees with the evaluator")
            return Q

        return Op(f"pow{k}#{i}", run)

    ROUNDS = 2

    def make_pass(self, k):
        rng = pass_rng(self.name, self.seed, k)
        ops = []
        for r in range(self.ROUNDS):
            ops += [
                self.pow_op(rng, 3 * r, 8),
                self.big_pair_op(rng, 2 * r),
                self.pullback_op(rng, 4 * r),
                self.grid_op(rng, 2 * r, "polarised-scaled"),
                self.pow_op(rng, 3 * r + 1, 7),
                self.pullback_op(rng, 4 * r + 1),
                self.big_pair_op(rng, 2 * r + 1),
                self.grid_op(rng, 2 * r + 1, "general-scaled"),
                self.pow_op(rng, 3 * r + 2, 6),
                self.pullback_op(rng, 4 * r + 2),
                self.pullback_op(rng, 4 * r + 3),
            ]
        return ops


# -- numeric -----------------------------------------------------------------------


class _Trajectory:
    """One Crank-Nicolson run; each operation advances it by one step."""

    def __init__(self, dyn, prop, n, q0, p0, sigma, steps):
        self.dyn, self.prop, self.n = dyn, prop, n
        self.q0, self.p0, self.sigma, self.steps = q0, p0, sigma, steps
        self.state = dyn.gaussian_state(prop.grid, q0, p0, sigma, 1.0)
        self.w0 = dyn.weighted_norm(self.state, n)

    def step(self):
        dyn = self.dyn
        s = self.state = self.prop.step(self.state)
        return (s.t, dyn.l2_norm(s), dyn.weighted_norm(s, self.n),
                dyn.expectation_q(s), dyn.variance_q(s))


class Numeric(Workload):
    """Crank-Nicolson steps on 2048 nodes for n = 0, 2, 3 with per-step diagnostics."""

    name = "numeric"
    PROBE = "numpy"
    ORDERS = (0, 2, 3)
    NODES = 2048
    DT = 1e-3
    STEPS = 400
    EXACT_TOL = 1e-4
    DRIFT_TOL = 1e-8
    LEAK_TOL = 1e-6

    def setup(self):
        import numpy as np

        from pseudoquant import dynamics

        self.np, self.dyn = np, dynamics

    def prepare(self):
        dyn = self.dyn
        self.props = {}
        for n in self.ORDERS:
            lo, hi = dyn.suggested_domain(n, 12.0)
            grid = dyn.Grid1D(lo, hi, self.NODES)
            self.props[n] = dyn.Propagator(grid, dyn.EvolutionConfig(n, 1.0, self.DT))

    def edge_fraction(self, psi) -> float:
        dens = self.np.abs(psi) ** 2
        return float((dens[:5].sum() + dens[-5:].sum()) / dens.sum())

    def step_op(self, traj, last):
        np, dyn = self.np, self.dyn

        def run():
            row = traj.step()
            return (row, traj.state.psi.copy()) if last else (row, None)

        def check(result):
            (t, _, w, _, _), psi = result
            if traj.n and abs(w - traj.w0) / traj.w0 >= self.DRIFT_TOL:
                raise Mismatch(f"n={traj.n}: weighted-norm drift at t={t}")
            if psi is None:
                return
            if self.edge_fraction(psi) >= self.LEAK_TOL:
                raise Mismatch(f"n={traj.n}: boundary leak at t={t}")
            if traj.n == 0:
                exact = dyn.free_gaussian_exact(traj.prop.grid, traj.q0, traj.p0, traj.sigma, 1.0, t)
                if float(np.max(np.abs(psi - exact.psi))) >= self.EXACT_TOL:
                    raise Mismatch(f"n=0: departs from the free Gaussian at t={t}")

        def render(result):
            return ",".join(fmt(x) for x in result[0])

        return Op(f"n={traj.n}", run, check, render)

    def make_pass(self, k):
        rng = pass_rng(self.name, self.seed, k)
        ops = []
        for n in self.ORDERS:
            # Odd n: start well inside the clipped domain, away from the singular edge.
            q0, sigma = (rng.uniform(3.0, 4.0), rng.uniform(0.5, 0.6)) if n % 2 else \
                (rng.uniform(-1.0, 1.0), rng.uniform(0.6, 1.0))
            traj = _Trajectory(self.dyn, self.props[n], n, q0, rng.uniform(-1.0, 1.0), sigma,
                               self.STEPS)
            ops += [self.step_op(traj, s == self.STEPS - 1) for s in range(self.STEPS)]
        return ops


# -- cli ---------------------------------------------------------------------------

FOLDED_PROBLEM = json.dumps({
    "chart": {"pairs": [["p1", "q1"], ["p2", "q2"], ["p3", "q3"]]},
    "theta": [["1/2*p1^2", "dq1"], ["p2", "dq2"], ["p3", "dq3"]],
})


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err


class Cli(Workload):
    """A scripted session of ``python -m pseudoquant.cli`` invocations.

    Untraced, every invocation is a fresh process; traced, the same argv
    lists go through ``pseudoquant.cli.run`` in this process.
    """

    name = "cli"
    PROBE = "startup"
    TAIL_WINDOW = 20
    COMMUTATORS = 10
    QUANTISES = 4
    BS_MAX = 60

    def setup(self):
        import pseudoquant as pq
        from pseudoquant import cli, exprparse, prequant

        self.pq, self.cli, self.exprparse, self.prequant = pq, cli, exprparse, prequant

    def prepare(self):
        self.problem = self.exprparse.load_problem(FOLDED_PROBLEM)

    def cpu_ns(self):
        if self.inprocess:
            return time.process_time_ns()
        import resource

        r = resource.getrusage(resource.RUSAGE_CHILDREN)
        return int((r.ru_utime + r.ru_stime) * 1e9)

    def invoke(self, argv: list[str]) -> CliResult:
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = self.cli.run(argv)
            text = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
            return CliResult(code, out.getvalue(), text)
        proc = subprocess.run([sys.executable, "-m", "pseudoquant.cli", *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def cli_op(self, label, argv, check):
        def run():
            res = self.invoke(argv)
            if res.code != 0:
                raise Mismatch(f"{label}: exit code {res.code}: {res.err.strip()[-200:]}")
            return res

        return Op(label, run, check, render=lambda res: res.out)

    def commutator_op(self, rng, i):
        pq, pre = self.pq, self.prequant
        if i % 2:
            chart, conn, problem = self.problem.chart, self.problem.connection, ["--problem", FOLDED_PROBLEM]
        else:
            chart = pq.standard_chart(1)
            conn, problem = pq.ConnectionData.standard(chart), []
        A = random_poly(pq, chart, rng, 3, 4)
        B = random_poly(pq, chart, rng, 3, 4)
        argv = ["commutator", *problem, f"--a={A}", f"--b={B}", "--json"]

        def check(res):
            want = str(pre.commutator_rhs(A, B, conn))
            if json.loads(res.out)["text"] != want:
                raise Mismatch(f"commutator {i}: CLI output differs from commutator_rhs")

        return self.cli_op(f"commutator#{i}", argv, check)

    def quantise_op(self, rng, i):
        pq, pre = self.pq, self.prequant
        chart, conn = self.problem.chart, self.problem.connection
        A = random_poly(pq, chart, rng, 3, 4)
        B = random_poly(pq, chart, rng, 3, 4)
        argv = ["quantise", "--problem", FOLDED_PROBLEM, f"--observable={A}", "--json"]

        def check(res):
            terms = json.loads(res.out)["terms"]
            op_a = pre.FormalOperator(chart, {
                tuple(int(x) for x in idx.split(",")): self.exprparse.parse_poly(c, chart)
                for idx, c in terms.items()})
            if pre.commutator(op_a, pre.quantise(B, conn)) != pre.commutator_rhs(A, B, conn):
                raise Mismatch(f"quantise {i}: printed operator fails the commutator oracle")

        return self.cli_op(f"quantise#{i}", argv, check)

    @staticmethod
    def _csv(text):
        return [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]

    def check_grid(self, res):
        for m, n, verdict, _ in self._csv(res.out):
            if (verdict == "true") != (int(m) <= 1):
                raise Mismatch(f"preserve grid: cell ({m},{n}) breaks 'preserves iff m <= 1'")

    def check_classify(self, res):
        if "# converges=false" not in res.out:
            raise Mismatch("bks classify: momentum pairing reported as convergent")
        for n, m, j, e, _, jc, cls, *_ in self._csv(res.out):
            n, e = int(n), Fraction(e)
            if e != (int(j) - Fraction(jc)) * Fraction(n, n + 2):
                raise Mismatch(f"bks classify: exponent of ({n},{m},{j}) off the linear law")
            want = "Diverges" if e < 0 else ("FiniteCandidate" if e == 0 else "Vanishes")
            if cls != want:
                raise Mismatch(f"bks classify: ({n},{m},{j}) classified {cls}, sign says {want}")

    def check_pair(self, res):
        for _, _, _, s_re, s_im in self._csv(res.out):
            if abs(float(s_re) + 0.5) > 1e-6 or abs(float(s_im)) > 1e-6:
                raise Mismatch("bks pair: scaled coefficient is not -hbar^2/2")

    def check_counts(self, res):
        rows = self._csv(res.out)
        if [int(r[0]) for r in rows] != list(range(1, self.BS_MAX + 1)):
            raise Mismatch("bs-count: missing energy levels")
        for E, std, folded in rows:
            E = int(E)
            if int(std) != 2 * E - 1 or int(folded) != E * E - 1:
                raise Mismatch(f"bs-count: wrong counts at E={E}")

    def check_evolve(self, res):
        if res.err.strip():
            raise Mismatch(f"evolve: unexpected diagnostics: {res.err.strip()[-200:]}")
        weighted = [float(r[2]) for r in self._csv(res.out)]
        if len(weighted) != 201 or max(abs(w - weighted[0]) for w in weighted) >= 1e-8 * weighted[0]:
            raise Mismatch("evolve: weighted norm not conserved")

    def check_verify(self, res):
        if "# summary: 17 pass, 3 flagged, 0 fail" not in res.out:
            raise Mismatch("verify-paper: summary is not 17 pass, 3 flagged, 0 fail")

    def make_pass(self, k):
        rng = pass_rng(self.name, self.seed, k)
        small = [self.commutator_op(rng, i) for i in range(self.COMMUTATORS)]
        small += [self.quantise_op(rng, i) for i in range(self.QUANTISES)]
        init = (f"gaussian:q0={rng.uniform(-1, 1):.3f},p0={rng.uniform(-1, 1):.3f},"
                f"sigma={rng.uniform(0.6, 1.0):.3f}")
        large = [
            self.cli_op("preserve-grid", ["preserve", "--grid", "8,8"], self.check_grid),
            self.cli_op("bks-classify", ["bks", "classify", "--n", "3", "--m-max", "4"],
                        self.check_classify),
            self.cli_op("bks-pair", ["bks", "pair", "--n", "2", "--beta", "0:2:0.25"],
                        self.check_pair),
            self.cli_op("bs-count", ["bs-count", "--E", f"1..{self.BS_MAX}"], self.check_counts),
            self.cli_op("evolve", ["evolve", "--n", "2", "--grid", "-12:12:2048", "--steps", "200",
                                   "--init", init], self.check_evolve),
            self.cli_op("verify-paper", ["verify-paper", "--seed", str(rng.randrange(10**6))],
                        self.check_verify),
        ]
        ops = []
        for i, op in enumerate(small):
            ops.append(op)
            if i % 2 == 1 and large:
                ops.append(large.pop(0))
        return ops + large


WORKLOADS = {w.name: w for w in (ExactSweep, ExactSwell, Numeric, Cli)}

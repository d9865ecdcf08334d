"""Tests of the benchmark itself: statistics, tracing, failure counting, digests.

Run with ``python -m pytest bench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import gaussq
import probe
import spec
import stats
import tracer as tracer_mod
import worker
from workloads import Cli, CliResult, ExactSweep, Mismatch, Numeric, Op

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize("n, p", [(26, 60.0), (40, 75.0), (675, 95.0), (2700, 99.5),
                                  (60000, 99.95), (10**6, 99.99)])
def test_tail_percentile_examples(n, p):
    assert stats.tail_percentile(n) == p


@pytest.mark.parametrize("n", list(range(20, 400)) + [1000, 4321, 99999])
def test_tail_leaves_ten_beyond_and_next_rung_does_not(n):
    p = stats.tail_percentile(n)
    assert stats.samples_beyond(p, n) >= stats.MIN_BEYOND
    higher = [q for q in stats.TAIL_LADDER if q > p]
    if higher:
        assert stats.samples_beyond(higher[0], n) < stats.MIN_BEYOND


def test_tail_falls_back_to_median_for_few_samples():
    assert stats.tail_percentile(12) == 50.0
    s = stats.summarise_latencies([[5e6] * 11 + [9e6]], 200)
    assert s["op_ms_tail"] == 5.0 and s["tail_samples_beyond"] == 6


def test_windows_cut_samples_in_order():
    assert [len(w) for w in stats.windows([[0] * 150] * 5, 200)] == [200, 200, 350]
    assert [len(w) for w in stats.windows([[0] * 50] * 2, 200)] == [100]
    assert stats.windows([[1, 2], [3, 4, 5]], 2) == [[1, 2], [3, 4, 5]]


@pytest.mark.parametrize("window", [20, 50, 200])
def test_tail_percentile_is_fixed_by_the_window(window):
    """Any run with at least one window reports the same percentile."""
    for n in range(window, 6 * window):
        s = stats.summarise_latencies([[1.0] * n], window)
        assert s["tail_percentile"] == stats.tail_percentile(window)


def test_tail_is_median_over_windows():
    calm = [1e6] * 180 + [9e6] * 20
    stall = [1e6] * 180 + [50e6] * 20
    s = stats.summarise_latencies([calm, stall, calm], 200)
    assert s["tail_percentile"] == 95.0 and s["tail_windows"] == 3
    assert s["op_ms_tail"] == 9.0 and s["samples"] == 600


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 90.0) == 90
    assert stats.samples_beyond(90.0, 100) == 10


# -- spans and self time -----------------------------------------------------------


@pytest.fixture
def fake_clock(monkeypatch):
    clock = {"now": 0}
    monkeypatch.setattr(tracer_mod, "perf_counter_ns", lambda: clock["now"])
    return clock


def test_self_time_with_nested_spans(fake_clock):
    tr = tracer_mod.Tracer()

    def at(t):
        fake_clock["now"] = t

    at(0); tr.begin("outer")
    at(10); tr.begin("a")
    at(30); tr.end()
    at(40); tr.begin("b")
    at(50); tr.begin("a")
    at(60); tr.end()
    at(90); tr.end()
    at(100); tr.end()
    assert tr.total_ns == {"outer": 100, "a": 30, "b": 50}
    assert tr.self_ns == {"outer": 100 - 20 - 50, "a": 30, "b": 50 - 10}
    assert tr.calls["a"] == 2
    assert tr.child_calls[("outer", "a")] == 1 and tr.child_calls[("b", "a")] == 1
    by_id = {s[0]: s for s in tr.spans}
    parents = {s[2]: by_id[s[1]][2] if s[1] else None for s in tr.spans}
    assert parents["outer"] is None and parents["b"] == "outer"


def test_recursive_span_self_time_is_not_double_counted(fake_clock):
    tr = tracer_mod.Tracer()
    for t, action in [(0, "b"), (10, "b"), (15, "e"), (20, "e")]:
        fake_clock["now"] = t
        tr.begin("f") if action == "b" else tr.end()
    assert tr.self_ns["f"] == 20 and tr.total_ns["f"] == 25


def test_span_cap_drops_and_counts(fake_clock):
    tr = tracer_mod.Tracer(keep_spans=2)
    for _ in range(5):
        with tr.span("x"):
            pass
    assert len(tr.spans) == 2 and tr.dropped == 3 and tr.calls["x"] == 5


# -- failures are counted, never fatal ------------------------------------------------


class _InProcess:
    inprocess = True

    @staticmethod
    def cpu_ns():
        return 0


def _raise(exc):
    raise exc


def test_failures_are_counted_not_raised():
    ops = [
        Op("ok", lambda: "fine"),
        Op("mismatch", lambda: _raise(Mismatch("oracle says no"))),
        Op("crash", lambda: 1 / 0),
        Op("bad-check", lambda: 3, check=lambda r: _raise(Mismatch("check failed"))),
        Op("bad-render", lambda: 3, render=lambda r: r.missing_attribute),
    ]
    res = worker.run_pass(_InProcess(), ops)
    assert len(res.latencies) == 5
    assert [f.split(":")[0] for f in res.failures] == ["mismatch", "crash", "bad-check", "bad-render"]
    assert res.digests[0] == worker.digest("fine") and res.digests[1:] == [None] * 4


def test_probe_time_is_left_out_and_scales_the_pass():
    pause = probe.Probe("pause", lambda: time.sleep(0.05), reference_s=0.1, every_s=0.0)
    res = worker.run_pass(_InProcess(), [Op("a", lambda: 1), Op("b", lambda: 2)], probe=pause)
    assert len(res.probes) == 1 + 2  # at the start and after each operation
    assert res.segment == [0, 1] and sum(res.wall_ns) < 0.04e9
    assert res.factors(pause) == pytest.approx([2.0, 2.0], rel=0.3)
    assert res.factors() == [1.0, 1.0]


def test_wrong_oracle_input_counts_as_failure():
    wl = ExactSweep(1)
    wl.setup()
    pq, pre = wl.pq, wl.prequant
    chart = pq.standard_chart(1)
    conn = pq.ConnectionData.standard(chart)
    A, B = pq.Poly.var(chart, "p1"), pq.Poly.var(chart, "q1")
    good = wl.pair_op("good", A, B, conn)
    # The oracle is fed 2*B instead of B, so the exact comparison must fail.
    wl.prequant = types.SimpleNamespace(
        quantise=pre.quantise, commutator=pre.commutator,
        commutator_rhs=lambda a, b, c: pre.commutator_rhs(a, b.scale(2), c))
    bad = wl.pair_op("wrong-oracle", A, B, conn)
    res = worker.run_pass(_InProcess(), [good, bad])
    assert len(res.failures) == 1 and res.failures[0].startswith("wrong-oracle: Mismatch")


def test_cli_check_rejects_wrong_counts():
    wl = Cli(1, inprocess=True)
    wl.BS_MAX = 3
    good = CliResult(0, "# E=1..3\nE,standard_dim,folded_dim\n1,1,0\n2,3,3\n3,5,8\n", "")
    wl.check_counts(good)
    with pytest.raises(Mismatch):
        wl.check_counts(CliResult(0, good.out.replace("3,5,8", "3,5,9"), ""))


def test_digest_mismatch_is_one_failure_per_operation():
    ops = [Op("a", None), Op("b", None)]
    assert worker.digest_failures(["x", "y"], ["x", "z"], ops) == [
        "b: output digest y differs from recorded z"]
    assert worker.digest_failures(["x"], None, ops[:1]) == []


# -- traced and untraced runs agree ------------------------------------------------------


def _small_sweep():
    wl = ExactSweep(3)
    wl.PAIRS_PER_CONNECTION, wl.DEGREE4_PAIRS = 3, 1
    return wl


def _small_numeric():
    wl = Numeric(3)
    wl.STEPS = 20
    return wl


@pytest.mark.parametrize("make", [_small_sweep, _small_numeric])
def test_traced_and_untraced_digests_identical(make):
    res = worker.traced(make())
    assert res["failed"] == 0, res["failures"]
    assert None not in res["digests"]
    assert res["digests"] == res["traced_digests"]
    assert res["missing_hooks"] == []


def test_traced_counts_repeat_exactly():
    first = worker.traced(_small_sweep())["metrics"]
    second = worker.traced(_small_sweep())["metrics"]
    counts = [k for k in first if k.endswith(".calls") or k.endswith("_ratio")
              or k in ("symcore.peak_terms", "symcore.max_degree", "symcore.max_coeff_bits")]
    assert first["symcore.mul.calls"] > 0 and first["prequant.compose.calls"] > 0
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_hooks_are_removed_after_a_traced_run():
    import pseudoquant.dynamics as dynamics
    import pseudoquant.symcore as symcore
    import scipy.linalg

    mul, solve = symcore.Poly.__mul__, dynamics.solve_banded
    worker.traced(_small_numeric())
    assert symcore.Poly.__mul__ is mul and dynamics.solve_banded is solve
    assert scipy.linalg.solve_banded is solve


# -- exact evaluator ------------------------------------------------------------------


def test_gaussian_rational_evaluator():
    from pseudoquant.symcore import Poly, Scalar, standard_chart

    chart = standard_chart(1)
    p, q = Poly.var(chart, "p1"), Poly.var(chart, "q1")
    P = p * q.scale(Scalar(Fraction(1, 2), 1)) + Poly.hbar(chart)
    point = {"hbar": (Fraction(1), Fraction(0)), "p1": (Fraction(2), Fraction(1)),
             "q1": (Fraction(1, 3), Fraction(0))}
    # (2 + i) * (1/3) * (1/2 + i) + 1 = 1 + (2 + i)(1/6 + i/3) = 1 + (0 + 5i/6)
    assert gaussq.evaluate(P, point) == (Fraction(1), Fraction(5, 6))
    assert gaussq.evaluate(P**3, point) == gaussq.power(gaussq.evaluate(P, point), 3)
    assert gaussq.evaluate(P**3, point) != gaussq.power(gaussq.evaluate(P, point), 2)


# -- BENCHMARK.json --------------------------------------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_written_from_spec():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert data == spec.benchmark_json()
    assert [w["name"] for w in data["workloads"]] == ["exact-sweep", "exact-swell", "numeric", "cli"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in data[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in data[key])
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(data)) < 64 * 1024


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "numeric", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

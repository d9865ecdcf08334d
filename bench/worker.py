"""Child process that runs one workload and prints one JSON result line.

``run.py`` starts it in a fresh, single-threaded environment, one at a time::

    python3 bench/worker.py --workload exact-sweep --seed 1 --seconds 20
    python3 bench/worker.py --workload numeric --seed 1 --setup-only
    python3 bench/worker.py --workload cli --seed 1 --trace

Untraced, it repeats passes (pass k has inputs made from the seed and k)
until ``--seconds`` have gone by, always finishing the pass in flight, with
the workload's host-speed probe between operations.  Traced, it runs pass 0
once without and once with the hooks installed, and takes no probes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter_ns

import stats
from probe import PROBES
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests"
OUT = BENCH / "out"
DEFAULT_SEED = 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class PassResult:
    """Timings of one pass, split into stretches between host-speed probes.

    ``segment[i]`` is the stretch operation i ran in; ``wall_ns`` and
    ``cpu_ns`` hold each stretch's time without the probes; ``probes`` holds
    one sample before, between and after the stretches (none without a probe).
    """

    __slots__ = ("latencies", "segment", "wall_ns", "cpu_ns", "probes", "failures", "digests")

    def __init__(self, latencies, segment, wall_ns, cpu_ns, probes, failures, digests):
        self.latencies, self.segment, self.wall_ns, self.cpu_ns = latencies, segment, wall_ns, cpu_ns
        self.probes, self.failures, self.digests = probes, failures, digests

    def factors(self, probe=None) -> list[float]:
        """Speed factor of each stretch, from the probes on either side of it."""
        if probe is None or not self.probes:
            return [1.0] * len(self.wall_ns)
        return [probe.factor(pair) for pair in zip(self.probes, self.probes[1:])]


def run_pass(workload, ops, tracer=None, probe=None) -> PassResult:
    """Time every operation, then check and digest each result untimed.

    An operation that raises, fails its check or cannot be rendered is a
    failure; it never stops the pass.  With a ``probe``, it runs at the start
    and then after an operation whenever ``probe.every_s`` have gone by since
    the last one, and once more at the end; its time is left out of the
    pass's wall and CPU time.
    """
    latencies, segment, results = [], [], []
    walls, cpus, probes = [], [], []
    clock = workload.cpu_ns
    if probe is not None:
        probes.append(probe())
    t0, c0 = perf_counter_ns(), clock()
    for op in ops:
        start = perf_counter_ns()
        try:
            if tracer is None:
                res = op.run()
            else:
                with tracer.span("bench.op"):
                    res = op.run()
            err = None
        except Exception as exc:  # a failing operation is counted, not fatal
            res, err = None, f"{op.label}: {type(exc).__name__}: {exc}"
        end = perf_counter_ns()
        latencies.append(end - start)
        segment.append(len(walls))
        results.append((res, err))
        if probe is not None and end - t0 >= probe.every_s * 1e9:
            walls.append(end - t0)
            cpus.append(clock() - c0)
            probes.append(probe())
            t0, c0 = perf_counter_ns(), clock()
    if not walls or segment[-1] == len(walls):  # operations since the last probe
        walls.append(perf_counter_ns() - t0)
        cpus.append(clock() - c0)
        if probe is not None:
            probes.append(probe())
    failures, digests = [], []
    for op, (res, err) in zip(ops, results):
        text = None
        if err is None:
            try:
                if op.check is not None:
                    op.check(res)
                text = op.render(res)
            except Exception as exc:  # counted like a failing operation
                err = f"{op.label}: {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(err)
        digests.append(None if text is None else digest(text))
    return PassResult(latencies, segment, walls, cpus, probes, failures, digests)


def expected_digests(name: str, seed: int):
    path = DIGESTS / f"{name}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    data = json.loads(path.read_text())
    return data["digests"] if data.get("seed") == seed else None


def digest_failures(got, want, ops) -> list[str]:
    """One failure per operation whose output digest differs from the expected one."""
    if want is None:
        return []
    if len(got) != len(want):
        return [f"digest list has {len(got)} entries, expected {len(want)}"]
    return [f"{op.label}: output digest {g} differs from recorded {w}"
            for op, g, w in zip(ops, got, want) if g is not None and g != w]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.inprocess else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(workload, seconds: float, setup_only: bool) -> dict:
    workload.setup()
    workload.prepare()
    ops = workload.make_pass(0)
    t_ready = time.perf_counter()
    setup_probe = PROBES["startup"]()
    if setup_only:
        return {"t_ready": t_ready, "setup_probe": setup_probe}
    probe = PROBES[workload.PROBE]
    want = expected_digests(workload.name, workload.seed)
    deadline = time.perf_counter() + seconds
    passes, failures, attempted = [], [], 0
    k = 0
    while True:
        res = run_pass(workload, ops, probe=probe)
        passes.append(res)
        attempted += len(ops)
        failures += res.failures
        if k == 0:
            failures += digest_failures(res.digests, want, ops)
            first_digests = res.digests
        k += 1
        if time.perf_counter() >= deadline:
            break
        ops = workload.make_pass(k)
    return {
        "t_ready": t_ready,
        "setup_probe": setup_probe,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "passes": len(passes),
        "speed_factors": [statistics.median(p.factors(probe)) for p in passes],
        "probes_s": [p.probes for p in passes],
        "raw": timed_metrics(passes, None, workload.TAIL_WINDOW),
        **timed_metrics(passes, probe, workload.TAIL_WINDOW),
        "peak_rss_mb": peak_rss_mb(workload),
        "digests": first_digests,
    }


def timed_metrics(passes, probe, window: int) -> dict:
    """Timed metrics, each stretch of a pass scaled by its speed factor.

    Wall time, CPU time and throughput are medians over passes; the latency
    median is over every operation and the tail over windows of ``window``.
    """
    walls, cpus, latencies = [], [], []
    for p in passes:
        f = p.factors(probe)
        walls.append(sum(w * x for w, x in zip(p.wall_ns, f)) / 1e9)
        cpus.append(sum(c * x for c, x in zip(p.cpu_ns, f)) / 1e9)
        latencies.append([ns * f[s] for ns, s in zip(p.latencies, p.segment)])
    med = statistics.median
    return {
        "wall_s": med(walls),
        "cpu_s": med(cpus),
        "ops_per_s": med(len(p.latencies) / w for p, w in zip(passes, walls)),
        **stats.summarise_latencies(latencies, window),
    }


def traced(workload) -> dict:
    from tracer import Instrumentation, Tracer, layer_metrics, program_self_s

    tracer = Tracer()
    inst = Instrumentation(tracer)  # hooks the scipy factorisers before the import
    workload.setup()
    inst.attach()
    workload.prepare()  # traced: set-up work such as building propagators counts
    inst.uninstall()
    plain_ops, traced_ops = workload.make_pass(0), workload.make_pass(0)
    plain = run_pass(workload, plain_ops)
    inst.install()
    self_before = program_self_s(tracer)
    with tracer.span("bench.pass"):
        trace = run_pass(workload, traced_ops, tracer)
    inst.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    want = expected_digests(workload.name, workload.seed)
    failures = plain.failures + trace.failures + digest_failures(plain.digests, want, plain_ops)
    failures += [f"{op.label}: traced output differs from untraced output"
                 for op, a, b in zip(plain_ops, plain.digests, trace.digests) if a != b]
    metrics = layer_metrics(tracer, inst)
    plain_s, traced_s = sum(plain.wall_ns) / 1e9, sum(trace.wall_ns) / 1e9
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.layer_self_share"] = (program_self_s(tracer) - self_before) / traced_s
    return {
        "attempted": len(plain_ops) + len(traced_ops),
        "failed": len(failures),
        "failures": failures[:10],
        "metrics": metrics,
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "missing_hooks": inst.missing,
        "digests": plain.digests,
        "traced_digests": trace.digests,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep starting passes until this long has gone by (0: one pass)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # The traced cli session runs in-process through pseudoquant.cli.run.
    inprocess = args.workload != "cli" or args.trace
    workload = WORKLOADS[args.workload](args.seed, inprocess)
    result = traced(workload) if args.trace else untraced(workload, args.seconds, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""pseudoquant benchmark: run one workload, or all of them, and report metrics.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --trace 1     # per-layer metrics
    python3 bench/run.py --all                         # every workload, both modes
    python3 bench/run.py --write-spec                  # regenerate BENCHMARK.json
    python3 bench/run.py --record-digests              # regenerate bench/digests/

Each workload runs in fresh child processes started one at a time, with
BLAS/OpenMP pinned to one thread.  With ``--trace 0`` the last stdout line
is ``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric; with ``--trace 1`` the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from probe import PROBES
from worker import BENCH, DEFAULT_SEED, DIGESTS, OUT

ROOT = BENCH.parent
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, dict]:
    """Run one worker child to completion; return its spawn time and JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """cli.import_s and cli.import_scipy_s from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pseudoquant.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"importing pseudoquant.cli failed:\n{proc.stderr[-2000:]}")
    cli_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        if name == "pseudoquant.cli":
            cli_us = cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return {"cli.import_s": cli_us / 1e6, "cli.import_scipy_s": scipy_us / 1e6}


def environment(seed: int) -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=10)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = bool(git("status", "--porcelain")) if sha else None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    query = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    proc = subprocess.run([sys.executable, "-c", query], capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        versions["numpy"], versions["scipy"] = proc.stdout.split()
    return {"git_sha": sha or "unknown", "dirty": dirty, **versions, "nproc": os.cpu_count(),
            "cpu_model": cpu, "seed": seed}


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    t_spawn, res = spawn(base + ["--seconds", str(seconds)])
    startup = PROBES["startup"]
    raw_setups = [res["t_ready"] - t_spawn]
    setups = [raw_setups[0] * startup.factor([res["setup_probe"]])]
    for _ in range(spec.SETUP_SAMPLES - 1):
        t_spawn, child = spawn(base + ["--setup-only"], timeout=60)
        raw_setups.append(child["t_ready"] - t_spawn)
        setups.append(raw_setups[-1] * startup.factor([child["setup_probe"]]))
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update({name: res[name] for name, *_ in spec.END_TO_END if name != "setup_s"})
    res["raw"]["setup_s"] = statistics.median(raw_setups)
    res["setup_samples_s"] = setups
    return {"result": res, "metrics": metrics}


def run_traced(workload: str, seed: int) -> dict:
    _, res = spawn(["--workload", workload, "--seed", str(seed), "--trace"])
    metrics = dict(res["metrics"])
    metrics.update(import_times())
    return {"result": res, "metrics": metrics}


def report(workload: str, seed: int, trace: bool, seconds: float) -> dict:
    run = run_traced(workload, seed) if trace else run_untraced(workload, seed, seconds)
    res = run["result"]
    units = {n: u for n, u, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)}
    missing = sorted(set(units) - set(run["metrics"]))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {n: {"value": run["metrics"][n], "unit": u} for n, u in units.items()}
    for name, m in metrics.items():
        print(f"{workload:12s} {name:36s} {m['value']:.6g} {m['unit']}")
    fail_share = res["failed"] / res["attempted"]
    print(f"{workload:12s} {'fail_share':36s} {fail_share:.6g} ({res['failed']}/{res['attempted']})")
    if not trace:
        print(f"{workload:12s} {'op_ms_tail is p' + format(res['tail_percentile'], 'g'):36s} "
              f"{res['tail_samples_beyond']} samples beyond it in each of "
              f"{res['tail_windows']} windows; {res['samples']} samples")
        print(f"{workload:12s} {'host speed factor':36s} {statistics.median(res['speed_factors']):.4g}")
        for name, value in res["raw"].items():
            if name in units:
                print(f"{workload:12s} {'raw ' + name:36s} {value:.6g}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    env = environment(seed)
    print(json.dumps({"environment": env}))
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "trace": trace, "environment": env, "fail_share": fail_share,
              "metrics": metrics, "detail": {k: v for k, v in res.items() if "digests" not in k}}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def record_digests() -> None:
    """Write the expected output digests of pass 0 at the default seed."""
    DIGESTS.mkdir(exist_ok=True)
    for workload in spec.WORKLOADS:
        name = workload[0]
        (DIGESTS / f"{name}.json").unlink(missing_ok=True)  # record afresh, compare with nothing
        _, res = spawn(["--workload", name, "--seed", str(DEFAULT_SEED)])
        if res["failed"]:
            raise BenchError(f"{name}: not recording digests of a failing pass: {res['failures']}")
        (DIGESTS / f"{name}.json").write_text(
            json.dumps({"seed": DEFAULT_SEED, "digests": res["digests"]}) + "\n")
        print(f"recorded {len(res['digests'])} digests for {name}")


def run_all(seed: int, seconds: float) -> bool:
    ok = True
    summary = {}
    for name, _ in spec.WORKLOADS:
        plain = report(name, seed, False, seconds)
        traced = report(name, seed, True, seconds)
        ok = ok and plain["correct"] and traced["correct"]
        summary[name] = {"untraced": plain, "traced": traced}
    (OUT / f"all-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    print(f"{'workload':12s} {'ops/s':>10s} {'wall_s':>9s} {'p50 ms':>9s} {'tail ms':>9s} "
          f"{'setup_s':>8s} {'trace overhead s':>17s} {'layer share':>11s}")
    for name, s in summary.items():
        e, p = s["untraced"]["metrics"], s["traced"]["metrics"]
        print(f"{name:12s} {e['ops_per_s']['value']:10.4g} {e['wall_s']['value']:9.4g} "
              f"{e['op_ms_p50']['value']:9.4g} {e['op_ms_tail']['value']:9.4g} "
              f"{e['setup_s']['value']:8.4g} {p['trace.overhead_s']['value']:17.4g} "
              f"{p['trace.layer_self_share']['value']:11.3g}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    mode.add_argument("--record-digests", action="store_true",
                      help="record expected output digests at the default seed")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.write_spec:
        spec.write(ROOT / "BENCHMARK.json")
        return 0
    if not (ROOT / "src" / "pseudoquant" / "__init__.py").is_file():
        print(f"error: no pseudoquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.all:
            return 0 if run_all(args.seed, args.seconds) else 1
        result = report(args.workload, args.seed, bool(args.trace), args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads and metrics of the benchmark; ``BENCHMARK.json`` is written from here."""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20
SETUP_SAMPLES = 3  # fresh set-ups per run; setup_s is their median

WORKLOADS = (
    ("exact-sweep", "many tiny Polys: per-coefficient Fraction overhead and FormalOperator.compose "
                    "dominate, as in verify-paper and tier-1; numeric and CLI layers idle"),
    ("exact-swell", "same symcore/prequant layers on few large, tall-coefficient term maps "
                    "(commutators, pullbacks, 8x8 grids, Poly**k), so representation trade-offs show"),
    ("numeric", "Crank-Nicolson steps plus per-step diagnostics on 2048 nodes for n = 0, 2, 3; "
                "only dynamics and numpy work, symcore idle"),
    ("cli", "fresh-process CLI session: interpreter start, imports, parsing, output and "
            "verify-paper count here and nowhere else"),
)

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("cpu_s", "s", "lower", 0.2),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_ms_p50", "ms", "lower", 0.2),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better); README.md maps each to the end-to-end metric it should move
PER_LAYER = (
    ("symcore.mul.calls", "count", "lower"),
    ("symcore.mul.self_s", "s", "lower"),
    ("symcore.add.calls", "count", "lower"),
    ("symcore.add.self_s", "s", "lower"),
    ("symcore.partial.calls", "count", "lower"),
    ("symcore.partial.self_s", "s", "lower"),
    ("symcore.scalar_new.calls", "count", "lower"),
    ("symcore.chart_coords.calls", "count", "lower"),
    ("symcore.substitute.self_s", "s", "lower"),
    ("symcore.pow.self_s", "s", "lower"),
    ("symcore.pow.useful_mul_ratio", "ratio", "higher"),
    ("symcore.peak_terms", "count", "lower"),
    ("symcore.max_degree", "count", "lower"),
    ("symcore.max_coeff_bits", "bits", "lower"),
    ("prequant.quantise.self_s", "s", "lower"),
    ("prequant.compose.calls", "count", "lower"),
    ("prequant.compose.self_s", "s", "lower"),
    ("prequant.commutator_rhs.self_s", "s", "lower"),
    ("prequant.pullback_quantise.self_s", "s", "lower"),
    ("polarisation.preserves.calls", "count", "lower"),
    ("polarisation.preserves.self_s", "s", "lower"),
    ("exprparse.parse_poly.calls", "count", "lower"),
    ("exprparse.parse_poly.self_s", "s", "lower"),
    ("dynamics.step.calls", "count", "lower"),
    ("dynamics.step.self_s", "s", "lower"),
    ("dynamics.factorisations_per_step", "ratio", "lower"),
    ("dynamics.diagnostics.self_s", "s", "lower"),
    ("dynamics.grid_q_builds_per_record", "ratio", "lower"),
    ("dynamics.propagator_init.self_s", "s", "lower"),
    ("bks.quadrature.calls", "count", "lower"),
    ("bks.quadrature.self_s", "s", "lower"),
    ("bks.classify_pairing.self_s", "s", "lower"),
    ("bks.position_pairing.self_s", "s", "lower"),
    ("bohrsommerfeld.analyse.self_s", "s", "lower"),
    ("bohrsommerfeld.points_per_count", "ratio", "lower"),
    ("verify.commutator_oracle.self_s", "s", "lower"),
    ("verify.deformed_evolution.self_s", "s", "lower"),
    ("verify.lattice_counts.self_s", "s", "lower"),
    ("verify.other.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_self_share", "ratio", "higher"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write(path: Path) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")

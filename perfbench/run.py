"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-small --seed 2014 \\
        --seconds 20 --trace 0

Every workload is single-process, single-threaded and closed-loop: one
client issues the next operation only after the previous one returned.
A run imports the library (timed), sets its inputs up several times
(timed, median kept), runs one untimed warm-up op, measures ops for
``--seconds`` seconds, then checks the outputs. ``--trace 1`` instead
measures an untraced half, a traced region of ``--seconds`` with timing
wrappers around the library's public calls, and another untraced half;
it reports per-layer metrics instead of end-to-end ones. The wrappers
are removed afterwards.

Every time among the end-to-end metrics is host-normalized: scaled by
``PROBE_NOMINAL_S`` over the time of a fixed probe loop measured around
it (see ``harness.Region``), because the speed of one core of a shared
host swings by up to 2x for minutes at a time. The measured figures sit
beside them in the details line.

The last line of standard output is the result JSON
(``correct``/``attempted``/``failed``/``metrics``); the line before it
holds details: sample counts, tails, read latency, the measured
(unscaled) times, the host probe timings and the gate digests. The exit
code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from harness import (
    PROBE_NOMINAL_S,
    HostProbe,
    Patches,
    Region,
    Tracer,
    clock,
    median_ms,
    peak_rss_mb,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent

#: Workload name → module holding its ``Workload`` class.
WORKLOADS = {
    "pipeline-small": "pipeline_small",
    "ingest-medium-temporal": "ingest_temporal",
    "serve-small-bounded": "serve_bounded",
}
DEFAULT_SEED = 2014
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Every per-layer metric with its unit. A traced run reports all of
#: them; a layer the workload does not exercise reads 0.
PER_LAYER = {
    "trace.wall_s": "s",
    "other_s": "s",
    "trace.overhead_pct": "%",
    # pipeline-small
    "synth.build_s": "s",
    "synth.io_s": "s",
    "crawler.run_s": "s",
    "crawler.self_s": "s",
    "api.busy_s": "s",
    "api.calls": "count",
    "chartmap.decode_s": "s",
    "chartmap.decodes": "count",
    "crawler.retries": "count",
    "crawler.yield": "ratio",
    "datamodel.io_s": "s",
    "datamodel.filter_s": "s",
    "engine.build_columnar_s": "s",
    "engine.npz_s": "s",
    "engine.kernels_s": "s",
    "reconstruct.tag_table_s": "s",
    "durability.journal_s": "s",
    "durability.verify_s": "s",
    "durability.persist_s": "s",
    "durability.bytes_written": "bytes",
    # ingest-medium-temporal
    "engine.apply_s": "s",
    "engine.deltas": "count",
    "engine.rows_touched": "count",
    "engine.tag_rows_recomputed": "count",
    "engine.tag_rows_deferred": "count",
    "engine.flush_s": "s",
    "engine.flushes": "count",
    "engine.metric_s": "s",
    "analysis.trending_update_s": "s",
    "analysis.trending_query_s": "s",
    # serve-small-bounded
    "serving.warm_s": "s",
    "serving.placed": "count",
    "serving.serve_s": "s",
    "placement.cache_s": "s",
    "placement.cache_ops": "count",
    "serving.hit_ratio": "ratio",
    "serving.local_hits": "count",
    "serving.remote_hits": "count",
    "serving.origin_fetches": "count",
    "serving.retries": "count",
    "serving.reroutes": "count",
    "serving.hedges": "count",
    "serving.hedge_wins": "count",
    "serving.shed": "count",
    "serving.queued": "count",
    "serving.overload_rejections": "count",
}


def _timed_region(workload, probe, seconds: float, tracer=None) -> Region:
    region = Region(probe)
    region.start()
    workload.run(seconds, region, tracer)
    region.stop()
    return region


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """One benchmark run; returns (result, details)."""
    start = clock()
    module = importlib.import_module(WORKLOADS[workload_name])
    import_s = clock() - start

    probe = HostProbe()
    workload = module.Workload(seed, workdir)
    prepare_s = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = clock()
        workload.prepare()
        prepare_s.append(clock() - start)
    workload.warm_up()

    if not trace:
        region = _timed_region(workload, probe, seconds)
        regions = [region]
    else:
        # Untraced halves on both sides of the traced region, so warming
        # and linear host drift do not masquerade as tracing overhead.
        region = _timed_region(workload, probe, seconds / 2)
        tracer = Tracer()
        with Patches(tracer) as patches:
            workload.install(patches)
            traced = _timed_region(workload, probe, seconds, tracer)
        after = _timed_region(workload, probe, seconds / 2)
        regions = [region, traced, after]
        untraced_items_per_s = (region.items + after.items) / (
            region.norm_wall + after.norm_wall
        )
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(workload.layer_metrics(tracer, traced))
        layers["trace.wall_s"] = traced.wall
        layers["other_s"] = traced.wall - tracer.total_busy()
        layers["trace.overhead_pct"] = 100.0 * (
            1.0 - traced.items_per_s / untraced_items_per_s
        )

    probes = [p for r in regions for p in r.probes]
    measured_setup_s = import_s + statistics.median(prepare_s)
    # Set-up runs once, before the timed region, with no probe inside it;
    # slow spells last minutes, so the run's median probe stands for it.
    setup_s = measured_setup_s * PROBE_NOMINAL_S / statistics.median(probes)

    failures, gate_details = workload.check()
    if trace:
        metrics = {name: _metric(layers[name], PER_LAYER[name]) for name in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "items_per_s": region.items_per_s,
            "op_p50_ms": median_ms(region.norm_ops),
        }
        metrics = {name: _metric(values[name], END_TO_END[name]) for name in END_TO_END}
    p95 = tail_percentile(region.norm_ops, 95)
    probes_ms = [p * 1000.0 for p in probes]
    details = {
        "workload": workload_name,
        "seed": seed,
        "ops": len(region.ops),
        "reads": len(region.reads),
        "items": region.items,
        "op_p95_ms": None if p95 is None else p95 * 1000.0,
        "read_p50_ms": median_ms(region.norm_reads),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "measured": {
            "setup_s": measured_setup_s,
            "wall_s": region.wall,
            "items_per_s": region.raw_items_per_s,
            "op_p50_ms": median_ms(region.ops),
            "read_p50_ms": median_ms(region.reads),
        },
        "host_probe_ms": {
            "start": probes_ms[0],
            "end": probes_ms[-1],
            "median": statistics.median(probes_ms),
            "min": min(probes_ms),
            "max": max(probes_ms),
            "count": len(probes_ms),
        },
        "gates": gate_details,
        "failures": failures,
    }
    if trace:
        details["traced_items_per_s"] = traced.items_per_s
        details["untraced_items_per_s"] = untraced_items_per_s
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in regions),
        "failed": sum(r.failed for r in regions),
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: library sources not found under {src}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, details = run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

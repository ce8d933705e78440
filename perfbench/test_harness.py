"""Self-tests for the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import ingest_temporal  # noqa: E402
import pipeline_small  # noqa: E402
import run  # noqa: E402
import serve_bounded  # noqa: E402
from harness import Patches, Tracer, tail_percentile  # noqa: E402


# -- percentile helper -------------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(199)), 95) is None
    assert tail_percentile(list(range(200)), 95) == 189
    assert tail_percentile(list(range(1000)), 95) == 949


def test_small_samples_have_no_tail():
    assert tail_percentile([], 50) is None
    assert tail_percentile([3.0, 1.0, 2.0], 95) is None
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile(list(range(21)), 50) == 10


# -- tracer ------------------------------------------------------------------


def test_tracer_charges_self_time(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(harness, "clock", lambda: next(ticks))
    tracer = Tracer()
    tracer.enter("outer")  # t=0
    tracer.enter("inner")  # t=1
    tracer.exit()  # t=3: inner took 2
    tracer.exit()  # t=10: outer took 10, 8 of it its own
    assert tracer.busy == {"inner": 2.0, "outer": 8.0}
    assert tracer.inclusive == {"inner": 2.0, "outer": 10.0}
    assert tracer.total_busy() == 10.0


# -- host normalization ------------------------------------------------------


class _ScriptedProbe:
    def __init__(self, *seconds):
        self._seconds = iter(seconds)

    def measure(self):
        return next(self._seconds)


def test_region_scales_each_stretch_by_the_probes_around_it(monkeypatch):
    nominal = harness.PROBE_NOMINAL_S
    ticks = iter([0.0, 1.0, 1.0, 1.25, 1.25, 1.25])
    monkeypatch.setattr(harness, "clock", lambda: next(ticks))
    region = harness.Region(_ScriptedProbe(nominal, 3 * nominal, 5 * nominal))
    region.start()  # t=0, probe reads nominal
    region.add_op(0.4)  # t=1: stretch of 1 s closed, probe reads 3x
    region.add_read(0.1)  # t=1.25: too short for a probe
    region.stop()  # probe reads 5x
    region.items = 9
    assert region.ops == [0.4] and region.reads == [0.1]
    assert region.norm_ops == pytest.approx([0.4 / 2])
    assert region.norm_reads == pytest.approx([0.1 / 4])
    assert region.wall == pytest.approx(1.25)
    assert region.norm_wall == pytest.approx(1.0 / 2 + 0.25 / 4)
    assert region.items_per_s == pytest.approx(9 / 0.5625)
    assert region.raw_items_per_s == pytest.approx(9 / 1.25)


def test_host_probe_times_a_fixed_loop():
    probe = harness.HostProbe()
    assert 0.0 < probe.measure(repeats=1) < 1.0


# -- trace wrappers ----------------------------------------------------------


def _plain(x):
    return x + 1


class _Target:
    def method(self, x):
        return x * 2

    @classmethod
    def make(cls, x):
        return (cls, x)

    async def fetch(self, x):
        await asyncio.sleep(0)
        return x

    def stream(self, n):
        yield from range(n)


def _snapshot(targets):
    return [
        (owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name))
        for owner, name, _ in targets
    ]


def test_wrappers_time_calls_and_restore_originals():
    module = sys.modules[__name__]
    before = {
        "plain": module._plain,
        "method": _Target.__dict__["method"],
        "make": _Target.__dict__["make"],
        "fetch": _Target.__dict__["fetch"],
        "stream": _Target.__dict__["stream"],
    }
    tracer = Tracer()
    with Patches(tracer) as patches:
        patches.wrap(module, "_plain", "plain")
        for name in ("method", "make", "fetch", "stream"):
            patches.wrap(_Target, name, name)
        assert module._plain is not before["plain"]
        assert module._plain(1) == 2
        target = _Target()
        assert target.method(2) == 4
        assert _Target.make(3) == (_Target, 3)
        assert asyncio.run(target.fetch(5)) == 5
        assert list(target.stream(3)) == [0, 1, 2]
    for layer in ("plain", "method", "make", "fetch", "stream"):
        assert tracer.calls[layer] == 1, layer
    assert module._plain is before["plain"]
    for name in ("method", "make", "fetch", "stream"):
        assert _Target.__dict__[name] is before[name], name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_wrappers_restore_library_originals(workload, tmp_path):
    module = __import__(run.WORKLOADS[workload])
    patches = Patches(Tracer())
    module.Workload(1, tmp_path).install(patches)
    installed = patches.targets()
    assert installed
    wrapped = _snapshot(installed)
    assert all(now is not original for (_, _, now), (_, _, original) in zip(wrapped, installed))
    patches.restore()
    for (owner, name, now), (_, _, original) in zip(_snapshot(installed), installed):
        assert now is original, f"{owner}.{name} not restored"


# -- correctness gates -------------------------------------------------------


def _ulp(array):
    bumped = np.array(array, dtype=np.float64, copy=True)
    bumped.flat[0] = np.nextafter(bumped.flat[0], np.inf)
    return bumped


def test_pipeline_gate_fails_on_perturbed_resume():
    stages = pipeline_small.PIPELINE_STAGES
    tags = ["music", "cats"]
    table = np.arange(6, dtype=np.float64).reshape(2, 3)
    check = pipeline_small.check_resume
    assert check(tags, table, list(tags), table.copy(), stages) is None
    assert check(tags, table, tags, _ulp(table), stages)
    assert check(tags, table, ["music", "dogs"], table.copy(), stages)
    assert check(tags, table, tags, table.copy(), stages[:-1])
    digest = pipeline_small.table_digest
    assert digest(tags, table) != digest(tags, _ulp(table))


def test_ingest_gate_fails_on_perturbed_state():
    from repro.engine.incremental import IncrementalEngine, cold_rebuild
    from repro.synth.temporal import make_temporal

    stream = make_temporal("tiny-temporal")
    engine = IncrementalEngine()
    for batch in stream.iter_batches():
        engine.apply(batch)
    oracle = cold_rebuild(*stream.snapshot_eligible())
    state = (engine.tags, engine.tag_views, engine.est)
    expected = (oracle.tags, oracle.tag_views, oracle.est)
    check = ingest_temporal.check_ingest
    assert check(state, expected) is None
    assert check((state[0], _ulp(state[1]), state[2]), expected)
    assert check((state[0], state[1], _ulp(state[2])), expected)
    assert check((state[0][::-1], state[1], state[2]), expected)


def _report(**changes):
    base = serve_bounded.ServingReport(
        planner="tags", requests=256, local_hits=200, remote_hits=20,
        origin_fetches=36, failed=0, hit_ratio=200 / 256,
        replica_hit_ratio=220 / 256, mean_km=100.0, p50_km=90.0,
        p99_km=900.0, virtual_seconds=1.5, retries=0, reroutes=0,
        breaker_opens=0, placed=0, offered=256,
    )
    return dataclasses.replace(base, **changes)


def test_serving_gate_fails_on_perturbed_report():
    check = serve_bounded.check_block
    assert check(256, _report()) is None
    assert check(256, _report(requests=255, shed=1)) is None
    assert check(256, _report(requests=255))
    assert check(256, _report(offered=255))
    assert check(256, _report(failed=1))
    digest = serve_bounded.report_digest
    assert digest(_report()) != digest(_report(p99_km=900.0000001))


# -- benchmark description ---------------------------------------------------


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

"""The benchmark's own checks: metric names, smoke windows, layer map.

Run with ``PYTHONPATH=src python -m pytest layerbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from layerbench import hostspeed, measure
from layerbench.layers import (
    LAYERS,
    LayerTracer,
    NegativeSelfTimeError,
    UnmappedComponentError,
    layer_of,
)
from layerbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
INFO = json.loads((Path(__file__).parent / "metrics.json").read_text())
E2E = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]

#: Short windows: long enough for more than ten completions each.
SMOKE = {
    "mixed_saturated": (400, 200),
    "torus_hotspot": (300, 150),
    "gals_serial": (1_500, 500),
    "sparse_mesh": (4_000, 2_000),
}


def smoke(name):
    window, prefix = SMOKE[name]
    return replace(WORKLOADS[name], window=window, prefix=prefix)


def test_metric_names_and_metadata():
    names = E2E + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert set(INFO["metrics"]) == set(names)
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert workloads == set(WORKLOADS)
    for name, meta in INFO["metrics"].items():
        assert meta["time"] in ("host", "sim"), name
        if name in PER_LAYER and meta["moves"] is not None:
            assert meta["moves"]["metric"] in E2E, name
            assert meta["moves"]["workload"] in workloads, name
    assert INFO["model"].startswith("unvalidated")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_map_covers_every_component(name):
    soc = WORKLOADS[name].build(1)
    assert {layer_of(c) for c in soc.sim._components} <= set(LAYERS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_window_end_to_end(name):
    inv, metrics = measure.end_to_end(smoke(name), seed=1, seconds=0)
    assert inv.problems == []
    assert inv.failed == 0 and inv.attempted > 0
    assert list(metrics) == E2E
    assert metrics["success_ratio"] == 1.0
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_window_traced(name):
    inv, metrics = measure.per_layer(smoke(name), seed=1, seconds=0)
    assert inv.problems == []
    assert inv.failed == 0
    assert sorted(metrics) == sorted(PER_LAYER)
    shares = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    assert shares == pytest.approx(1.0, abs=0.05)


def test_unmapped_component_fails_loudly():
    stranger = type("BusComponent", (), {"__module__": "repro.bus.system"})
    with pytest.raises(UnmappedComponentError):
        layer_of(stranger())


def test_negative_self_time_is_rejected():
    tracer = LayerTracer()
    tracer.cells["niu"][0] = -1
    with pytest.raises(NegativeSelfTimeError):
        tracer.check()


def test_host_speed_scales_toward_the_reference():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.speed(ref, ref) == 1.0
    # A loop taking twice as long means a host at half speed: a slice's
    # wall time is halved to read as it would at the reference speed.
    assert hostspeed.speed(2 * ref, 2 * ref) == 0.5
    assert hostspeed.loop_seconds() > 0

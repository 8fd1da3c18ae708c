"""Router input-occupancy mask vs a full scan of the inputs.

A router tracks which input VCs hold committed flits in a bitmask (bit i
is the i-th input wired), set by each input's push-waiter at commit and
cleared by the router's own hops, instead of scanning every input each
tick.  These tests pin that the mask always equals a full scan — on
random small fabrics of every VC flavour and switching mode, cycle by
cycle, and after snapshot/restore — and that a stale bit left by a
test-side ``SimQueue.drain()`` cannot change what the next tick does.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ip.masters import random_workload
from repro.sim.fingerprint import fingerprint_soc, reset_ids
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep.checkpoint import Checkpoint
from repro.transport import topology as topo
from repro.transport.flit import Packetizer
from repro.transport.router import Router
from repro.transport.switching import SwitchingMode

from test_kernel_determinism import _fresh_global_ids  # noqa: F401
from test_router_network import request

FABRICS = {
    "single-vc": {},
    "dateline-2vc": {"routing": "dor", "vcs": 2, "vc_policy": "dateline"},
    "adaptive-escape": {"routing": "adaptive", "vcs": 3,
                        "vc_policy": "escape"},
}


def full_scan(router) -> int:
    """The occupancy mask recomputed from scratch, in wiring order."""
    return sum(
        1 << index
        for index, queue in enumerate(router.inputs.values())
        if queue._committed
    )


def assert_masks_exact(soc) -> None:
    for plane in soc.fabric._planes:
        for router in plane.routers.values():
            assert router._occupied == full_scan(router), router.name


@st.composite
def fabric_recipe(draw):
    fabric = draw(st.sampled_from(sorted(FABRICS)))
    cycles = draw(st.integers(min_value=40, max_value=200))
    return dict(
        fabric=fabric,
        mode=draw(st.sampled_from(list(SwitchingMode))),
        shape=draw(st.sampled_from(["mesh", "ring"])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        rate=draw(st.sampled_from([0.3, 0.7, 1.0])),
        hotspot=draw(st.booleans()),
        cycles=cycles,
        snapshot_at=draw(st.integers(min_value=1, max_value=cycles - 1)),
    )


def build(recipe):
    reset_ids()
    n_masters, n_targets = 4, 2
    endpoints = n_masters + n_targets
    if recipe["fabric"] != "single-vc":
        topology = topo.torus(3, 3, endpoints=endpoints)
    elif recipe["shape"] == "ring":
        topology = topo.ring(3, endpoints=endpoints)
    else:
        topology = topo.mesh(2, 3, endpoints=endpoints)
    wormhole = recipe["mode"] is SwitchingMode.WORMHOLE
    builder = SocBuilder(
        trace=Tracer(enabled=True),
        topology=topology,
        mode=recipe["mode"],
        # Shallow wormhole buffers make backpressure (and so multi-input
        # occupancy) common; SAF/VCT need room for a whole packet.
        buffer_capacity=4 if wormhole else 16,
        **FABRICS[recipe["fabric"]],
    )
    ranges = [(0x1000 * t, 0x1000) for t in range(n_targets)]
    for index in range(n_masters):
        builder.add_initiator(
            InitiatorSpec(
                f"m{index}", "AXI",
                random_workload(
                    f"m{index}",
                    ranges[:1] if recipe["hotspot"] else ranges,
                    count=10_000,
                    seed=recipe["seed"] + index,
                    rate=recipe["rate"],
                    tags=4,
                    burst_beats=(1, 4),
                ),
                protocol_kwargs={"id_count": 4},
            )
        )
    for index in range(n_targets):
        builder.add_target(
            TargetSpec(f"mem{index}", size=0x1000, base=0x1000 * index)
        )
    return builder.build()


@settings(
    max_examples=24,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(recipe=fabric_recipe())
def test_mask_equals_full_scan_every_cycle(recipe):
    soc = build(recipe)
    checkpoint = None
    for cycle in range(recipe["cycles"]):
        soc.run(1)
        assert_masks_exact(soc)
        if cycle + 1 == recipe["snapshot_at"]:
            checkpoint = Checkpoint.capture(soc)
    assert soc.fabric.total_flits_forwarded() > 0
    final = fingerprint_soc(soc)

    # Rewinding the same SoC recomputes every mask from restored queues.
    checkpoint.restore_into(soc)
    assert_masks_exact(soc)

    # A fresh congruent build restores to exact masks and replays the
    # rest of the run byte-identically.
    fresh = build(recipe)
    checkpoint.restore_into(fresh)
    assert_masks_exact(fresh)
    for _ in range(recipe["cycles"] - recipe["snapshot_at"]):
        fresh.run(1)
        assert_masks_exact(fresh)
    assert fingerprint_soc(fresh) == final


@pytest.mark.parametrize("vcs", [1, 2])
def test_drained_input_leaves_next_tick_correct(vcs):
    """A test-side drain() of a router input empties it behind the
    router's back, leaving its occupancy bit stale.  The next tick must
    act exactly as on a full scan: forward the other input's flit and
    end with the bit cleared — not index the drained queue."""
    sim = Simulator()
    router = Router("r", 0, {0: "local:0", 1: "local:1"}, vcs=vcs)
    in_a = router.add_input("in:a", sim.new_queue("inA", capacity=8))
    in_b = router.add_input("in:b", sim.new_queue("inB", capacity=8))
    outputs = [
        router.add_output("local:1", sim.new_queue(f"out{vc}", capacity=8),
                          vc=vc)
        for vc in range(vcs)
    ]
    router.add_output("local:0", sim.new_queue("spare", capacity=8))
    sim.add(router)
    packetizer = Packetizer(128)
    for queue, txn_id in ((in_a, 1), (in_b, 2)):
        for flit in packetizer.segment(request(1, 0, txn_id=txn_id)):
            queue.push(flit)
    sim.run(1)  # both inputs commit: both occupancy bits set
    assert router._occupied == full_scan(router) == 0b11

    dropped = in_a.drain()
    assert dropped and router._occupied == 0b11  # stale bit for in:a
    sim.run(1)
    assert router._occupied == full_scan(router)
    sim.run(1)
    delivered = [flit for queue in outputs for flit in queue]
    assert [flit.packet.txn_id for flit in delivered if flit.packet] == [2]
    assert router.flits_forwarded == len(delivered) == 1
    assert router._occupied == 0 and router.is_idle()

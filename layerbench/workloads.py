"""The four benchmark workloads, each built on the default ``SocBuilder``.

Every builder takes the workload seed and derives one traffic seed per
master from it, so the same seed gives the same inputs.  Builds use the
activity kernel unless the caller asks for the strict reference kernel
(the fingerprint check does), and never set ``router_core=``: the
benchmark measures the configuration users run.  Why each workload exists
is recorded next to its name in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ip.masters import cpu_workload, dma_workload, random_workload
from repro.phys.link import LinkSpec
from repro.sim.fingerprint import reset_ids
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.transport import topology as topo

#: Large enough that no open-loop source drains inside any window.
SUSTAINED = 10_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulated cycles in one measured repetition.
    window: int
    #: Simulated cycles of the strict-vs-activity fingerprint prefix.
    prefix: int
    #: Consecutive timed slices of the window, each one throughput sample
    #: of a few tenths of a second.
    slices: int
    build: Callable[..., object]


def _seed(seed: int, index: int) -> int:
    """Traffic seed of master ``index`` under workload seed ``seed``."""
    return seed * 1000 + index


def _mixed_initiators(seed: int, rate: float):
    """The paper's Fig-1/Fig-2 SoC: one master of each socket family."""
    ranges = [(0, 0x4000), (0x4000, 0x4000)]
    return [
        InitiatorSpec("cpu_ahb", "AHB",
                      cpu_workload("cpu_ahb", ranges, count=SUSTAINED,
                                   seed=_seed(seed, 1))),
        InitiatorSpec("gpu_axi", "AXI",
                      random_workload("gpu_axi", ranges, count=SUSTAINED,
                                      seed=_seed(seed, 2), tags=4, rate=rate,
                                      burst_beats=(1, 4, 8)),
                      protocol_kwargs={"id_count": 4}),
        InitiatorSpec("dsp_ocp", "OCP",
                      random_workload("dsp_ocp", ranges, count=SUSTAINED,
                                      seed=_seed(seed, 3), threads=2,
                                      rate=rate),
                      protocol_kwargs={"threads": 2}),
        InitiatorSpec("io_bvci", "BVCI",
                      random_workload("io_bvci", ranges, count=SUSTAINED,
                                      seed=_seed(seed, 4), rate=rate)),
        InitiatorSpec("acc_msg", "PROPRIETARY",
                      dma_workload("acc_msg", base=0x2000, bytes_total=1024)),
    ]


def _mixed_targets():
    return [
        TargetSpec("dram", size=0x4000, read_latency=6, write_latency=3),
        TargetSpec("sram", size=0x4000, read_latency=2, write_latency=1),
    ]


def _build(initiators, targets, strict: bool, **kwargs):
    reset_ids()
    builder = SocBuilder(strict_kernel=strict, **kwargs)
    for spec in initiators:
        builder.add_initiator(spec)
    for spec in targets:
        builder.add_target(spec)
    return builder.build()


def build_mixed_saturated(seed: int, strict: bool = False):
    """Five socket families under open-loop Bernoulli injection at 0.95."""
    return _build(_mixed_initiators(seed, rate=0.95), _mixed_targets(), strict)


def build_torus_hotspot(seed: int, strict: bool = False):
    """4x4 torus, adaptive routing with escape VCs, half the masters on a
    slow target that accepts one transaction at a time."""
    hot_range = [(0, 0x2000)]
    bg_ranges = [(0x2000, 0x2000), (0x4000, 0x2000), (0x6000, 0x2000)]
    initiators = []
    for index in range(12):
        hot = index % 2 == 0
        initiators.append(
            InitiatorSpec(
                f"ip{index}", "AXI",
                random_workload(
                    f"ip{index}",
                    hot_range if hot else bg_ranges,
                    count=SUSTAINED,
                    seed=_seed(seed, index),
                    rate=0.9 if hot else 0.7,
                    tags=4,
                    burst_beats=(4, 8),
                ),
                protocol_kwargs={"id_count": 4},
            )
        )
    targets = [
        TargetSpec("hot", size=0x2000, read_latency=14, write_latency=7,
                   max_outstanding=1),
        TargetSpec("bg0", size=0x2000, read_latency=2, write_latency=1),
        TargetSpec("bg1", size=0x2000, read_latency=2, write_latency=1),
        TargetSpec("bg2", size=0x2000, read_latency=2, write_latency=1),
    ]
    return _build(
        initiators, targets, strict,
        topology=topo.torus(4, 4, endpoints=len(initiators) + len(targets)),
        routing="adaptive", vcs=3, vc_policy="escape",
    )


def build_gals_serial(seed: int, strict: bool = False):
    """The mixed SoC over serialized links, three clock regions plus a
    fabric domain, and CDC on every NIU link, under sustained load."""
    initiators = _mixed_initiators(seed, rate=0.35)
    regions = ("cpu", "io", "dsp")
    for index, spec in enumerate(initiators):
        spec.region = regions[index % len(regions)]
    targets = _mixed_targets()
    for spec in targets:
        spec.region = "io"
    return _build(
        initiators, targets, strict,
        links={
            "router": LinkSpec(phit_bits=48, pipeline_latency=1),
            "endpoint": LinkSpec(phit_bits=96),
        },
        clock_domains={"cpu": 2, "io": (3, 1), "dsp": 2, "fab": 1},
        fabric_region="fab",
    )


def build_sparse_mesh(seed: int, strict: bool = False):
    """12 AXI masters and 4 memories on a 4x4 mesh at a low open-loop rate,
    so most cycles are provably idle and the kernel skips them."""
    ranges = [(base, 0x1000) for base in range(0, 0x4000, 0x1000)]
    initiators = [
        InitiatorSpec(
            f"m{index}", "AXI",
            random_workload(f"m{index}", ranges, count=SUSTAINED,
                            seed=_seed(seed, index), rate=0.002, tags=4,
                            burst_beats=(1, 4, 8)),
            protocol_kwargs={"id_count": 4},
        )
        for index in range(12)
    ]
    targets = [
        TargetSpec(f"mem{index}", size=0x1000, read_latency=4,
                   write_latency=2)
        for index in range(4)
    ]
    return _build(
        initiators, targets, strict,
        topology=topo.mesh(4, 4, endpoints=len(initiators) + len(targets)),
    )


#: Each window completes well over 1,000 transactions, so the tail is a
#: true p99 and the simulated metrics vary by a few percent from seed to
#: seed; each prefix keeps the strict-kernel check near a second.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed_saturated",
            window=8_000, prefix=1_000, slices=8,
            build=build_mixed_saturated,
        ),
        Workload(
            "torus_hotspot",
            window=8_000, prefix=600, slices=16,
            build=build_torus_hotspot,
        ),
        Workload(
            "gals_serial",
            window=20_000, prefix=2_000, slices=8,
            build=build_gals_serial,
        ),
        Workload(
            "sparse_mesh",
            window=200_000, prefix=6_000, slices=16,
            build=build_sparse_mesh,
        ),
    )
}

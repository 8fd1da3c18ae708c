"""One benchmark invocation: repeated runs, correctness checks, metrics.

A *repetition* builds the workload's SoC from the seed, collects the
previous repetition's garbage, and runs its window.  Every repetition of
an invocation simulates the same inputs, so its simulated counters must
equal the first repetition's; a mismatch, an error response, an ordering
violation or an exception marks the repetition's transactions as failed.
Host-time metrics are medians over timed slices of the repetitions'
windows, each slice's time scaled to the reference host speed measured
around it (see ``hostspeed``); simulated metrics come from the window and
repeat exactly.
"""

from __future__ import annotations

import gc
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from repro.sim.fingerprint import fingerprint_soc

from layerbench import hostspeed
from layerbench.layers import LAYERS, LayerTracer
from layerbench.workloads import Workload

RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

#: Extra builds timed before the repetitions, so setup_s is a median even
#: when only two repetitions fit in the run.
SETUP_SAMPLES = 7
#: Percentile reported as the latency tail, when the window has enough
#: completions for ten samples to lie beyond it.
TAIL = 0.99
#: Seconds the fresh-process memory probe may take.
PROBE_TIMEOUT_S = 120


def counters(soc) -> Dict[str, object]:
    """The simulated outcome of a run: equal for equal inputs."""
    masters = soc.masters.values()
    routers = [
        router
        for plane in (soc.fabric.request_plane, soc.fabric.response_plane)
        for router in plane.routers.values()
    ]
    eports = [
        port
        for plane in (soc.fabric.request_plane, soc.fabric.response_plane)
        for port in plane.ejection_ports.values()
    ]
    samples = sorted(
        sample
        for name in soc.masters
        for sample in soc.sim.stats.latency(f"{name}.txn").histogram.samples
    )
    return {
        "cycle": soc.sim.cycle,
        "issued": sum(m.issued for m in masters),
        "completed": soc.total_completed(),
        "errors": sum(m.errors for m in masters),
        "ordering_violations": soc.ordering_violations(),
        "latency": latency_summary(samples),
        "flit_hops": soc.fabric.total_flits_forwarded(),
        "phits": soc.fabric.total_phits_carried(),
        "cycles_skipped": soc.sim.cycles_skipped,
        "wheel_events": soc.sim.wheel_events,
        "niu_stall_cycles": sum(
            niu.stall_cycles for niu in soc.initiator_nius.values()
        ),
        "packets_adaptive": sum(r.packets_adaptive for r in routers),
        "packets_escape": sum(r.packets_escape for r in routers),
        "lock_stall_cycles": sum(r.lock_stall_cycles for r in routers),
        "fault_stall_cycles": sum(r.fault_stall_cycles for r in routers),
        "packets_resequenced": sum(p.packets_resequenced for p in eports),
    }


def latency_summary(samples: List[float]) -> Dict[str, float]:
    """Nearest-rank p50 and tail of sorted ``samples``.

    The tail is p99 when at least ten samples lie beyond it; with fewer
    than 1,000 samples it is the highest percentile that still has ten
    beyond it, and ``tail_q`` records which one was taken.
    """
    n = len(samples)
    if n <= 10:
        raise ValueError(f"{n} completed transactions: too few for a tail")
    tail_rank = min(math.ceil(TAIL * n), n - 10)
    return {
        "count": n,
        "p50": samples[math.ceil(0.5 * n) - 1],
        "tail": samples[tail_rank - 1],
        "tail_q": tail_rank / n,
    }


def _normal(value):
    """``value`` as it reads after a JSON round trip (tuples -> lists)."""
    return json.loads(json.dumps(value))


@dataclass
class Invocation:
    """Accumulates one invocation's runs, failures and timing samples."""

    workload: Workload
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    reference: Optional[Dict[str, object]] = None
    #: Build times, scaled to the reference host speed.
    setup_s: List[float] = field(default_factory=list)
    #: Host speed (relative to the reference) around every timed interval.
    speeds: List[float] = field(default_factory=list)

    def fail(self, transactions: int, problem: str) -> None:
        self.failed += transactions
        self.problems.append(problem)

    def account(self, result: Dict[str, object], label: str) -> None:
        """Check one repetition's counters against the first one's."""
        issued = result["issued"]
        self.attempted += issued
        if self.reference is None:
            self.reference = result
        elif _normal(result) != _normal(self.reference):
            self.fail(issued, f"{label}: simulated counters differ from the "
                              f"first repetition's")
            return
        bad = result["errors"] + result["ordering_violations"]
        if bad:
            self.fail(bad, f"{label}: {result['errors']} error responses, "
                           f"{result['ordering_violations']} ordering "
                           f"violations")

    def build(self):
        before = hostspeed.loop_seconds()
        start = time.perf_counter()
        soc = self.workload.build(self.seed)
        wall = time.perf_counter() - start
        speed = hostspeed.speed(before, hostspeed.loop_seconds())
        self.speeds.append(speed)
        self.setup_s.append(wall * speed)
        return soc

    def guarded(self, label: str, body) -> Optional[object]:
        """Run ``body()``; an exception fails the repetition, not the
        invocation, and its traceback goes to stderr."""
        try:
            return body()
        except Exception:  # any simulator fault fails the repetition
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.fail(1, f"{label}: raised (traceback on stderr)")
            return None

    @property
    def correct(self) -> bool:
        return not self.problems

    def check_kernels(self) -> None:
        """The activity kernel's fingerprint over the workload's prefix
        must equal the strict reference kernel's."""

        def compare():
            prints = []
            for strict in (True, False):
                soc = self.workload.build(self.seed, strict=strict)
                soc.run(self.workload.prefix)
                prints.append(_normal(fingerprint_soc(soc)))
            issued = sum(m[0] for m in prints[0]["masters"].values())
            self.attempted += 2 * issued
            if prints[0] != prints[1]:
                self.fail(2 * issued, "activity kernel fingerprint differs "
                                      "from the strict kernel's")

        self.guarded("strict-vs-activity fingerprint", compare)


def _repeat(inv: Invocation, seconds: float, repetition) -> None:
    """Call ``repetition(index)`` at least twice, and again while one more
    is projected to end within ``seconds``; stop at the first failure."""
    start = time.perf_counter()
    reps = 0
    while reps < 2 or (time.perf_counter() - start) / reps * (reps + 1) <= seconds:
        inv.guarded(f"repetition {reps}", lambda: repetition(reps))
        reps += 1
        if not inv.correct:
            return


def _timed_run(soc, window: int, slices: int = 1):
    """Run ``soc`` for ``window`` cycles from a collected heap, timing
    each of ``slices`` consecutive slices of the window: returns
    ([[cycles, wall seconds, flit-hops, host speed] per slice], simulated
    counters).  The host speed comes from calibration loops run just
    before and just after the slice.

    Slicing moves no simulated event, only where the kernel's idle skips
    stop, so every run of an invocation must use the same ``slices``.
    """
    gc.collect()
    timed = []
    flits = soc.fabric.total_flits_forwarded()
    before = hostspeed.loop_seconds()
    for index in range(slices):
        cycles = (window * (index + 1) // slices) - (window * index // slices)
        start = time.perf_counter()
        soc.run(cycles)
        wall = time.perf_counter() - start
        after = hostspeed.loop_seconds()
        now = soc.fabric.total_flits_forwarded()
        timed.append([cycles, wall, now - flits,
                      hostspeed.speed(before, after)])
        flits, before = now, after
    return timed, counters(soc)


def _timed_repetition(inv: Invocation, index: int, samples) -> None:
    """Repetition 0 runs in a fresh interpreter that also measures the
    run's memory; the rest run in this process.  Each slice of the window
    gives one throughput sample, at the reference host speed."""
    workload = inv.workload
    if index == 0:
        probe = probe_memory(workload, inv.seed)
        timed, result = probe["slices"], probe["counters"]
        samples["run_mem_mib"].append(probe["run_mem_mib"])
    else:
        timed, result = _timed_run(inv.build(), workload.window,
                                   workload.slices)
    for cycles, wall, flits, speed in timed:
        inv.speeds.append(speed)
        samples["cycles_per_s"].append(cycles / (wall * speed))
        samples["flits_per_s"].append(flits / (wall * speed))
    inv.account(result, f"repetition {index}")


def probe_memory(workload: Workload, seed: int) -> Dict[str, object]:
    """Run one repetition in a fresh interpreter: returns its RSS growth
    (MiB), wall time and simulated counters."""
    argv = [sys.executable, str(RUN_SCRIPT), "--workload", workload.name,
            "--seed", str(seed), "--memory-probe", str(workload.window)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"memory probe exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _status_kib(field_name: str) -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field_name}")


def memory_probe(workload: Workload, seed: int) -> Dict[str, object]:
    """Body of the fresh-process probe: RSS just before the run, peak RSS
    during it (the peak is reset first where the kernel allows it)."""
    soc = workload.build(seed)
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass  # no reset: the peak so far still bounds the run from below
    before = _status_kib("VmRSS")
    timed, result = _timed_run(soc, workload.window, workload.slices)
    peak = _status_kib("VmHWM")
    return {"run_mem_mib": (peak - before) / 1024.0, "slices": timed,
            "counters": result}


def end_to_end(workload: Workload, seed: int, seconds: float):
    """The untraced run: returns (invocation, metrics)."""
    inv = Invocation(workload, seed)
    inv.check_kernels()
    for _ in range(SETUP_SAMPLES):
        inv.guarded("setup", inv.build)
    samples = {"cycles_per_s": [], "flits_per_s": [], "run_mem_mib": []}
    _repeat(inv, seconds, lambda index: _timed_repetition(inv, index, samples))
    if inv.reference is None or not all(samples.values()):
        return inv, {}
    latency = inv.reference["latency"]
    return inv, {
        "cycles_per_s": median(samples["cycles_per_s"]),
        "flits_per_s": median(samples["flits_per_s"]),
        "setup_s": median(inv.setup_s),
        "run_mem_mib": samples["run_mem_mib"][0],
        "sim_flits_per_cycle": inv.reference["flit_hops"] / workload.window,
        "sim_txn_latency_p50_cycles": latency["p50"],
        "sim_txn_latency_p99_cycles": latency["tail"],
        "sim_txn_latency_samples": latency["count"],
        "success_ratio": 1.0 - inv.failed / max(1, inv.attempted),
    }


def _layer_repetition(inv: Invocation, traced: bool, walls, tracers) -> None:
    soc = inv.workload.build(inv.seed)
    window = inv.workload.window
    if traced:
        tracer = LayerTracer()
        tracer.instrument(soc)
        gc.collect()
        tracer.run(soc, window)
        wall, result = tracer.wall_ns / 1e9, counters(soc)
        tracers.append(tracer)
    else:
        timed, result = _timed_run(soc, window)
        wall = timed[0][1]
    walls[traced].append(wall)
    inv.account(result, "traced run" if traced else "untraced run")


def layer_metrics(tracer: LayerTracer, ref, window: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run with simulated counters ``ref``.

    The physical layer is absent from three of the four workloads, where a
    time of its own would read 0.0 on every run; it is reported by share
    and by work done.
    """
    self_ns = tracer.self_ns()
    ticks = {layer: tracer.cells[layer][1] for layer in LAYERS}
    out = {}
    for layer in LAYERS:
        if layer != "phys":
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        out[f"{layer}.share"] = self_ns[layer] / tracer.wall_ns
    completed = ref["completed"]
    out["niu.ns_per_txn"] = self_ns["niu"] / completed
    out["niu.stall_cycles"] = ref["niu_stall_cycles"]
    out["protocols.ns_per_txn"] = self_ns["protocols"] / completed
    out["protocols.errors"] = ref["errors"]
    hops = ref["flit_hops"]
    routed = ref["packets_adaptive"] + ref["packets_escape"]
    out["transport.flit_hops"] = hops
    out["transport.ns_per_flit_hop"] = self_ns["transport"] / hops
    out["transport.flit_hops_per_tick"] = hops / ticks["transport"]
    out["transport.escape_ratio"] = (
        ref["packets_escape"] / routed if routed else 0.0
    )
    for name in ("lock_stall_cycles", "fault_stall_cycles",
                 "packets_resequenced"):
        out[f"transport.{name}"] = ref[name]
    phits = ref["phits"]
    out["phys.phits"] = phits
    out["phys.phits_per_tick"] = phits / ticks["phys"] if ticks["phys"] else 0.0
    out["sim.commit_s"] = tracer.commit[0] / 1e9
    out["sim.component_ticks"] = tracer.ticks
    out["sim.ticks_per_cycle"] = tracer.ticks / window
    out["sim.cycles_skipped"] = ref["cycles_skipped"]
    out["sim.skip_ratio"] = ref["cycles_skipped"] / window
    out["sim.wheel_events"] = ref["wheel_events"]
    polls = tracer.poll[1]
    out["ip.polls"] = polls
    out["ip.poll_hit_ratio"] = tracer.poll_hits / polls if polls else 0.0
    return out


def per_layer(workload: Workload, seed: int, seconds: float):
    """The traced run, alternating with untraced repetitions of the same
    inputs: returns (invocation, metrics)."""
    inv = Invocation(workload, seed)
    inv.check_kernels()
    walls = {False: [], True: []}
    tracers: List[LayerTracer] = []
    _repeat(inv, seconds, lambda index: _layer_repetition(
        inv, index % 2 == 1, walls, tracers))
    if not tracers or not walls[False]:
        return inv, {}
    runs = [layer_metrics(t, inv.reference, workload.window) for t in tracers]
    metrics = {name: median([run[name] for run in runs]) for name in runs[0]}
    metrics["trace.overhead_ratio"] = (
        median(walls[True]) / median(walls[False])
    )
    return inv, metrics

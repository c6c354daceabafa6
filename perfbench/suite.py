"""One run of one workload: the untraced and the traced measurement.

Imported by ``run.py`` once the program under test is importable.
End-to-end metrics come from the untraced run; the traced run gives the
per-layer metrics, each mapped to the end-to-end metric it should move.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from gate import Gate, GateError
from tracer import Tracer, absent_targets, unique
from workloads import WORKLOADS, percentile, scaled_host_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".perfbench")

#: set-ups per run; setup_s is their median
SETUPS = 9
#: the paper's hybrid efficiency (Section 6.2): hybrid throughput is
#: ~88.5% of the summed CPU-only and GPU-only throughputs
PAPER_HYBRID_EFFICIENCY = 0.885
#: simulated GPU pass of ssb_fig5_seq at seed 42 (BENCH_10 ssb_fig5_gpu)
BENCH_10_GPU_PASS_S = 59.06146078131773

SEQ = "on ssb_fig5_seq"
SERVE = "on serve_open_loop"
FLEET = "on fleet_failover"

#: name -> (unit, clock); simulated figures repeat exactly at fixed seeds
END_TO_END = {
    "setup_s": ("s", "host"),
    "queries_per_host_s": ("queries/host_s", "host"),
    "query_host_ms_p50": ("ms", "host"),
    "query_host_ms_p90": ("ms", "host"),
    "peak_rss_mib": ("MiB", "host"),
    "sim_s": ("s", "simulated"),
    "hybrid_efficiency": ("ratio", "simulated"),
    "sim_latency_p50_s": ("s", "simulated"),
    "sim_latency_p90_s": ("s", "simulated"),
    "deadline_hit_ratio": ("ratio", "simulated"),
    "slo_rate_qps": ("queries/sim_s", "simulated"),
    "completed_ratio": ("ratio", "simulated"),
}

#: name -> (unit, clock, the end-to-end metric it should move, and where)
PER_LAYER = {
    "sim.events": (
        "count",
        "count",
        f"queries_per_host_s, query_host_ms_p50 {SEQ}; flat {SERVE}",
    ),
    "sim.self_s": (
        "s",
        "host",
        f"queries_per_host_s, query_host_ms_p50 {SEQ}; flat {SERVE}",
    ),
    "sim.events_per_host_s": ("events/host_s", "host", f"queries_per_host_s {SEQ}"),
    "sim.repeat_drift": ("ratio", "simulated", "sim_s fidelity; must not grow"),
    "resources.bw_submits": (
        "count",
        "count",
        f"queries_per_host_s, sim_s, hybrid_efficiency {SEQ}",
    ),
    "resources.bw_self_s": ("s", "host", f"queries_per_host_s {SEQ}"),
    "resources.fifo_acquires": ("count", "count", f"queries_per_host_s {SEQ}"),
    "resources.pcie_busy_ratio": (
        "ratio",
        "simulated",
        f"sim_s, hybrid_efficiency {SEQ}",
    ),
    "resources.gpu_busy_ratio": (
        "ratio",
        "simulated",
        f"sim_s, hybrid_efficiency {SEQ}",
    ),
    "router.resumes": ("count", "count", f"query_host_ms_p50 {SEQ}"),
    "router.self_s": ("s", "host", f"query_host_ms_p50 {SEQ}"),
    "memmove.transfers": ("count", "count", f"sim_s, query_host_ms_p50 {SEQ}"),
    "memmove.bytes_moved": ("bytes", "simulated", f"sim_s {SEQ}"),
    "memmove.self_s": ("s", "host", f"query_host_ms_p50 {SEQ}"),
    "crossing.resumes": ("count", "count", f"query_host_ms_p50 {SEQ}"),
    "crossing.self_s": ("s", "host", f"query_host_ms_p50 {SEQ}"),
    "hashtable.probe_keys": ("count", "count", f"query_host_ms_p90 {SEQ}"),
    "hashtable.probe_ns_per_key": ("ns/key", "host", f"query_host_ms_p90 {SEQ}"),
    "hashtable.insert_keys": ("count", "count", f"query_host_ms_p90 {SEQ}"),
    "hashtable.self_s": ("s", "host", f"query_host_ms_p90 {SEQ}"),
    "pipeline.invocations": ("count", "count", f"query_host_ms_p90 {SEQ}"),
    "pipeline.self_s": ("s", "host", f"query_host_ms_p90 {SEQ}"),
    "codegen.fresh_compiles": (
        "count",
        "count",
        f"sim_latency_p90_s, slo_rate_qps {SERVE}; flat {SEQ}",
    ),
    "codegen.self_s": ("s", "host", f"queries_per_host_s {SERVE}; flat {SEQ}"),
    "cache.hit_ratio": ("ratio", "count", f"sim_latency_p90_s, slo_rate_qps {SERVE}"),
    "cache.useful_compile_ratio": (
        "ratio",
        "count",
        f"sim_latency_p90_s, slo_rate_qps {SERVE}",
    ),
    "compile.sim_s": (
        "s",
        "simulated",
        f"sim_latency_p90_s, slo_rate_qps {SERVE}; flat {SEQ}",
    ),
    "placer.self_s": ("s", "host", f"query_host_ms_p50 {SEQ}"),
    "executor.self_s": ("s", "host", f"query_host_ms_p50 {SEQ}"),
    "collect.self_s": ("s", "host", f"query_host_ms_p50 {SEQ}"),
    "scheduler.queue_sim_s": (
        "s",
        "simulated",
        f"deadline_hit_ratio, slo_rate_qps {SERVE}",
    ),
    "scheduler.service_sim_s": (
        "s",
        "simulated",
        f"sim_s, deadline_hit_ratio {SERVE}",
    ),
    "scheduler.compile_share": (
        "ratio",
        "simulated",
        f"deadline_hit_ratio, slo_rate_qps {SERVE}",
    ),
    "scheduler.preemptions": ("count", "count", f"deadline_hit_ratio {SERVE}"),
    "scheduler.shed": (
        "count",
        "count",
        f"completed_ratio, deadline_hit_ratio {SERVE}",
    ),
    "scheduler.self_s": ("s", "host", f"queries_per_host_s {SERVE}"),
    "metrics.pump_self_s": ("s", "host", f"queries_per_host_s {SERVE}"),
    "fleet.dispatches": (
        "count",
        "count",
        f"sim_latency_p50_s, queries_per_host_s {FLEET}",
    ),
    "fleet.failovers": ("count", "count", f"sim_latency_p50_s {FLEET}"),
    "fleet.hedge_wins": ("count", "count", f"sim_latency_p50_s {FLEET}"),
    "fleet.useful_dispatch_ratio": ("ratio", "count", f"queries_per_host_s {FLEET}"),
    "fleet.self_s": ("s", "host", f"queries_per_host_s {FLEET}"),
    "trace.overhead_ratio": (
        "ratio",
        "host",
        "none; end-to-end metrics come from the untraced run",
    ),
}


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def event_count(engines) -> int:
    return sum(sim._seq for sim in unique(engine.sim for engine in engines))


def check_repeat(first, drive) -> None:
    if drive.sim != first.sim or drive.layer != first.layer:
        raise GateError("simulated figures differ between two units of one input")


def measure(workload, gate: Gate, seconds: float) -> dict:
    """The untraced run: every end-to-end metric.

    Units repeat until ``seconds`` have passed (at least
    ``workload.min_units`` of them).  Each timed item recurs in every
    unit: throughput takes the median of an item's repetitions, the
    per-query percentiles pool every repetition.
    """
    units = []
    repeats: dict[str, list[float]] = {}
    completed_of: dict[str, int] = {}
    start = time.perf_counter()
    while len(units) < workload.min_units or time.perf_counter() - start < seconds:
        drive = workload.unit(gate)
        if units:
            check_repeat(units[0], drive)
        units.append(drive)
        for key, host_s, completed in drive.items:
            repeats.setdefault(key, []).append(host_s)
            completed_of[key] = completed
    host_of = {key: statistics.median(times) for key, times in repeats.items()}
    attempted = sum(d.attempted for d in units)
    failed = sum(d.failed for d in units)
    per_query = [
        host_s / completed_of[key]
        for key, times in repeats.items()
        for host_s in times
    ]
    values = dict(units[0].sim)
    # read before the hybrid probe, whose engines are not the workload's
    values["peak_rss_mib"] = peak_rss_mib()
    if "hybrid_efficiency" not in values:
        values["hybrid_efficiency"] = workload.hybrid_probe(gate)
    completed = sum(completed_of.values())
    values.update(
        {
            "queries_per_host_s": completed / sum(host_of.values()),
            "query_host_ms_p50": percentile(per_query, 50) * 1e3,
            "query_host_ms_p90": percentile(per_query, 90) * 1e3,
            "completed_ratio": 1.0 - failed / attempted,
        }
    )
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "units": len(units),
        "items": len(host_of),
        "samples": len(per_query),
    }


def busy_ratio(engines, resources_of) -> float:
    """Busy simulated time of some resources over their engines' clocks."""
    busy = horizon = 0.0
    for server in unique(engine.server for engine in engines):
        for res in resources_of(server):
            busy += res.busy_time
            horizon += server.sim.now
    return busy / horizon if horizon else 0.0


def trace_run(workload, gate: Gate, seconds: float) -> dict:
    """The traced run: every per-layer metric, plus the trace file."""
    absent = absent_targets()
    if absent:
        # an entry point that is not traced reads 0, which looks like a gain
        raise GateError(f"tracer targets absent from the program: {absent}")
    workload.keep_engines = True
    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(workload.unit(gate))
    plain = untraced[0]
    untraced_s = statistics.median(d.host_s for d in untraced)

    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        drive = workload.unit(gate)
    finally:
        tracer.uninstall()
        workload.tracer = None
    check_repeat(plain, drive)
    events = event_count(drive.engines)
    if events != event_count(plain.engines):
        raise GateError("tracing changed the number of simulator events")

    caches = [e.executor.pipeline_cache for e in drive.engines]
    stats = [c.stats for c in caches if c is not None]
    lookups = sum(s.lookups for s in stats)
    hits = sum(s.hits + s.shared_hits for s in stats)
    fresh = tracer.calls_of("codegen:PipelineCompiler.compile_fresh")
    probe_keys = tracer.counts["HashTable.probe.keys"]
    probe_s = tracer.inclusive_s("hashtable:HashTable.probe")
    layer = drive.layer
    values = {
        "sim.events": events,
        "sim.self_s": tracer.self_s("sim"),
        "sim.events_per_host_s": events / untraced_s,
        "sim.repeat_drift": workload.repeat_drift(gate),
        "resources.bw_submits": tracer.calls_of("bw:BandwidthResource.submit"),
        "resources.bw_self_s": tracer.self_s("bw"),
        "resources.fifo_acquires": tracer.calls_of("fifo:FifoResource.acquire"),
        "resources.pcie_busy_ratio": busy_ratio(
            drive.engines, lambda s: [g.link.bandwidth for g in s.gpus]
        ),
        "resources.gpu_busy_ratio": busy_ratio(
            drive.engines, lambda s: [g.compute for g in s.gpus]
        ),
        "router.resumes": tracer.layer_calls("router"),
        "router.self_s": tracer.self_s("router"),
        "memmove.transfers": sum(m.transfers for m in tracer.mem_moves),
        "memmove.bytes_moved": sum(m.bytes_moved for m in tracer.mem_moves),
        "memmove.self_s": tracer.self_s("memmove"),
        "crossing.resumes": tracer.layer_calls("crossing"),
        "crossing.self_s": tracer.self_s("crossing"),
        "hashtable.probe_keys": probe_keys,
        "hashtable.probe_ns_per_key": probe_s * 1e9 / probe_keys if probe_keys else 0.0,
        "hashtable.insert_keys": tracer.counts["HashTable.insert.keys"],
        "hashtable.self_s": tracer.self_s("hashtable"),
        "pipeline.invocations": tracer.calls_of("pipeline.invoke"),
        "pipeline.self_s": tracer.self_s("pipeline"),
        "codegen.fresh_compiles": fresh,
        "codegen.self_s": tracer.self_s("codegen"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.useful_compile_ratio": (
            len(tracer.compiled_signatures) / fresh if fresh else 0.0
        ),
        "compile.sim_s": layer.get("compile.sim_s", 0.0),
        "placer.self_s": tracer.self_s("placer"),
        "executor.self_s": tracer.self_s("executor"),
        "collect.self_s": tracer.self_s("collect"),
        "scheduler.queue_sim_s": layer.get("scheduler.queue_sim_s", 0.0),
        "scheduler.service_sim_s": layer.get("scheduler.service_sim_s", 0.0),
        "scheduler.compile_share": layer.get("scheduler.compile_share", 0.0),
        "scheduler.preemptions": layer.get("scheduler.preemptions", 0),
        "scheduler.shed": layer.get("scheduler.shed", 0),
        "scheduler.self_s": tracer.self_s("scheduler"),
        "metrics.pump_self_s": tracer.self_s("metrics"),
        "fleet.dispatches": layer.get("fleet.dispatches", 0),
        "fleet.failovers": layer.get("fleet.failovers", 0),
        "fleet.hedge_wins": layer.get("fleet.hedge_wins", 0),
        "fleet.useful_dispatch_ratio": layer.get("fleet.useful_dispatch_ratio", 0.0),
        "fleet.self_s": tracer.self_s("fleet"),
        "trace.overhead_ratio": drive.host_s / untraced_s,
    }
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload.name}-seed{workload.seed}.json")
    tracer.write_chrome_trace(path)
    return {
        "values": values,
        "attempted": sum(d.attempted for d in untraced) + drive.attempted,
        "failed": sum(d.failed for d in untraced) + drive.failed,
        "trace_path": os.path.relpath(path, ROOT),
        "spans": tracer.span_count(),
    }


def report(metrics: dict, table: dict) -> None:
    for name, (unit, clock, *moves) in table.items():
        line = f"  {name:28s} {metrics[name]['value']:>16.6g} {unit:15s} {clock}"
        if moves:
            line += f"  -> {moves[0]}"
        print(line)


def print_notes(result: dict, traced: bool, gate: Gate) -> None:
    values = result["values"]
    print(f"  results checked against the reference executor: {gate.checked}")
    if traced:
        print(
            f"  spans: {result['spans']} written to {result['trace_path']} "
            f"(Chrome trace-event JSON; open in Perfetto)"
        )
        return
    print(
        f"  units: {result['units']}; timed items: {result['items']} (queries "
        f"on ssb_fig5_seq, server streams or fleet drives otherwise); host "
        f"percentile samples: {result['samples']}"
    )
    print(
        f"  hybrid_efficiency {values['hybrid_efficiency']:.3f} vs the paper's "
        f"{PAPER_HYBRID_EFFICIENCY}: the model's only external reference; "
        f"the model is otherwise unvalidated"
    )
    if "gpu_pass_s" in values:
        print(
            f"  GPU pass: {values['gpu_pass_s']!r} simulated s "
            f"(BENCH_10 ssb_fig5_gpu at seed 42: {BENCH_10_GPU_PASS_S!r})"
        )
    rungs = [key.split("@")[1] for key in values if key.startswith("hit_ratio@")]
    for rate in rungs:
        print(
            f"  rung {rate}/s: deadline_hit_ratio {values['hit_ratio@' + rate]:.4f}, "
            f"interactive backlog growth {values['queue_growth@' + rate]:+.2f}"
        )
    if rungs:
        print(
            f"  middle rung: {values['middle_completed_dash']} interactive "
            f"queries completed; generator lateness 0 s by construction "
            f"(arrivals are simulator events)"
        )


def run(name: str, seed: int, seconds: float, traced: bool) -> int:
    """Measure one workload; prints the report and, last, the JSON line."""
    workload = WORKLOADS[name](seed)
    setups = [scaled_host_s(workload.setup)[0] for _ in range(SETUPS)]
    gate = Gate(workload.tables)
    print(f"perfbench {workload.name} seed={seed} trace={int(traced)}")
    try:
        if traced:
            result = trace_run(workload, gate, seconds)
            table = PER_LAYER
        else:
            result = measure(workload, gate, seconds)
            result["values"]["setup_s"] = statistics.median(setups)
            table = END_TO_END
    except GateError as error:
        # a wrong result is never reported as a metric value
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(failed))
        return 1
    metrics = {
        metric: {"value": result["values"][metric], "unit": spec[0]}
        for metric, spec in table.items()
    }
    report(metrics, table)
    print_notes(result, traced, gate)
    line = {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0

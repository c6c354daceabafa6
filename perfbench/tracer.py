"""Per-layer spans and counts, recorded from outside the program.

:class:`Tracer` patches the public entry points of each layer (and a few
hot internal ones) with thin wrappers while it is installed, and puts a
:class:`GenProxy` around every generator handed to ``Simulator.process``
so that each resume of a DES process becomes a span.  Spans nest on one
stack (the simulator is single-threaded); a layer's self time is the sum
over its spans of duration minus the duration of direct child spans.
Nothing in ``src/`` changes: uninstalling restores every attribute.

Spans are kept in memory as flat integer records and written at the end
as Chrome trace-event JSON (``ph: "X"``), which Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

#: source file (suffix) -> layer of a DES process defined there
PROCESS_LAYERS = {
    "hardware/sim.py": "sim",
    "core/router.py": "router",
    "core/mem_move.py": "memmove",
    "core/device_crossing.py": "crossing",
    "engine/executor.py": "executor",
    "engine/scheduler.py": "scheduler",
    "engine/metrics.py": "metrics",
    "engine/fleet.py": "fleet",
    "engine/faults.py": "fleet",
}

#: (module, class or None for a module function, attribute, layer)
CALLS = (
    ("repro.hardware.sim", "Simulator", "run", "sim"),
    ("repro.hardware.resources", "BandwidthResource", "submit", "bw"),
    ("repro.hardware.resources", "BandwidthResource", "_reschedule", "bw"),
    ("repro.hardware.resources", "FifoResource", "acquire", "fifo"),
    ("repro.hardware.resources", "FifoResource", "release", "fifo"),
    ("repro.core.mem_move", "MemMove", "schedule", "memmove"),
    ("repro.jit.hashtable", "HashTable", "probe", "hashtable"),
    ("repro.jit.hashtable", "HashTable", "insert", "hashtable"),
    ("repro.jit.codegen", "PipelineCompiler", "compile_fresh", "codegen"),
    ("repro.jit.cache", "PipelineCache", "get", "cache"),
    ("repro.jit.cache", "PipelineCache", "put", "cache"),
    ("repro.algebra.placer", "HeterogeneousPlacer", "place", "placer"),
    ("repro.engine.proteus", "Proteus", "query", "engine"),
    ("repro.engine.proteus", None, "collect_result", "collect"),
    ("repro.engine.executor", "Executor", "execute", "executor"),
    ("repro.engine.executor", "Executor", "execute_process", "executor"),
    ("repro.engine.executor", "Executor", "begin_compilation", "executor"),
    ("repro.engine.executor", "PlanCompilation", "finish", "executor"),
    ("repro.engine.scheduler", "EngineServer", "submit", "scheduler"),
    ("repro.engine.scheduler", "EngineServer", "run", "scheduler"),
    ("repro.engine.scheduler", "EngineServer", "cancel", "scheduler"),
    ("repro.engine.scheduler", "EngineServer", "finish_drive", "scheduler"),
    ("repro.engine.tenancy", "DeficitRoundRobin", "charge", "scheduler"),
    ("repro.engine.tenancy", "DeficitRoundRobin", "interleave", "scheduler"),
    ("repro.engine.tenancy", "TokenBucket", "take", "scheduler"),
    ("repro.engine.metrics", "MetricsPump", "emit", "metrics"),
    ("repro.engine.metrics", "MetricsPump", "drain", "metrics"),
    ("repro.engine.fleet", "EngineFleet", "submit", "fleet"),
    ("repro.engine.fleet", "EngineFleet", "run", "fleet"),
    ("repro.engine.fleet", "EngineFleet", "_route", "fleet"),
    ("repro.engine.fleet", "EngineFleet", "_merge", "fleet"),
    ("repro.engine.failover", "FallbackChain", "begin_attempt", "fleet"),
    ("repro.engine.failover", "FallbackChain", "resolve", "fleet"),
    ("repro.engine.failover", "CircuitBreaker", "allow", "fleet"),
    ("repro.engine.failover", "CircuitBreaker", "record_success", "fleet"),
    ("repro.engine.failover", "CircuitBreaker", "record_failure", "fleet"),
)

def absent_targets() -> list[str]:
    """``CALLS`` entries that this version of the program does not define."""
    absent = []
    for module_name, owner_name, attr, _ in CALLS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None or attr not in owner.__dict__:
            absent.append(f"{module_name}.{owner_name or ''}.{attr}")
    return absent


#: span name of a compiled pipeline's per-block invocation
PIPELINE_SPAN = "pipeline.invoke"

_now = time.perf_counter_ns


class GenProxy:
    """A DES process generator whose every resume is one span."""

    def __init__(self, gen: Any, tracer: "Tracer", name: int, qid: int) -> None:
        self._gen = gen
        self._tracer = tracer
        self._name = name
        self._qid = qid
        self.__name__ = getattr(gen, "__name__", "process")

    def __iter__(self) -> "GenProxy":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        tracer.open(self._name, self._qid)
        try:
            return self._gen.send(value)
        finally:
            tracer.close()

    def throw(self, *exc: Any) -> Any:
        tracer = self._tracer
        tracer.open(self._name, self._qid)
        try:
            return self._gen.throw(*exc)
        finally:
            tracer.close()

    def close(self) -> None:
        self._gen.close()


class Tracer:
    """Spans, per-layer self time and counts for one traced drive."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.inclusive_ns: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.qids: list[str] = []
        self._qid_index: dict[str, int] = {}
        #: query id given by the caller for spans outside any process
        self.context_qid = -1
        #: flat span records: id, parent, name, qid, start ns, end ns
        self.spans = array("q")
        self._stack: list[list[int]] = []
        self._next_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.compiled_signatures: set = set()
        self.mem_moves: list = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self._name_index[name] = index
            self.names.append(name)
            self.name_layer.append(layer)
            self.calls.append(0)
            self.inclusive_ns.append(0)
        return index

    def qid_id(self, qid: Optional[str]) -> int:
        if qid is None:
            return -1
        index = self._qid_index.get(qid)
        if index is None:
            index = len(self.qids)
            self._qid_index[qid] = index
            self.qids.append(qid)
        return index

    def set_query(self, qid: Optional[str]) -> None:
        self.context_qid = self.qid_id(qid)

    def current_qid(self) -> int:
        stack = self._stack
        if stack and stack[-1][3] >= 0:
            return stack[-1][3]
        return self.context_qid

    def open(self, name: int, qid: int = -1) -> None:
        if qid < 0:
            qid = self.current_qid()
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append([span_id, name, 0, qid, _now()])

    def close(self) -> None:
        end = _now()
        span_id, name, child_ns, qid, start = self._stack.pop()
        duration = end - start
        self.self_ns[self.name_layer[name]] += duration - child_ns
        self.calls[name] += 1
        self.inclusive_ns[name] += duration
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[0]
        self.spans.extend((span_id, parent, name, qid, start, end))

    def layer_calls(self, layer: str) -> int:
        return sum(
            calls for calls, owner in zip(self.calls, self.name_layer) if owner == layer
        )

    def calls_of(self, name: str) -> int:
        index = self._name_index.get(name)
        return 0 if index is None else self.calls[index]

    def inclusive_s(self, name: str) -> float:
        index = self._name_index.get(name)
        return 0.0 if index is None else self.inclusive_ns[index] / 1e9

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    # -- wrapping --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, fn: Callable, name: int, after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                result = after(args, result)
            return result

        return wrapper

    def proxy(self, gen: Any) -> Any:
        """Wrap a process generator unless it is wrapped already."""
        if isinstance(gen, GenProxy):
            return gen
        code = getattr(gen, "gi_code", None)
        layer = "other"
        label = getattr(gen, "__qualname__", type(gen).__name__)
        if code is not None:
            path = code.co_filename.replace(os.sep, "/")
            for suffix, owner in PROCESS_LAYERS.items():
                if path.endswith(suffix):
                    layer = owner
        qid = self.current_qid()
        if qid < 0:
            qid = self.qid_id(_qid_from_frame(gen))
        return GenProxy(gen, self, self.name_id(f"{layer}:{label}", layer), qid)

    def install(self) -> None:
        """Patch every ``CALLS`` target; each must exist (see
        :func:`absent_targets`)."""
        from repro.hardware.sim import Simulator
        from repro.jit.cache import stage_signature
        from repro.core.mem_move import MemMove

        tracer = self
        for module_name, owner_name, attr, layer in CALLS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            label = f"{owner_name}.{attr}" if owner_name else attr
            after = None
            if label in ("HashTable.probe", "HashTable.insert"):
                counter = f"{label}.keys"

                def after(args: tuple, result: Any, counter: str = counter) -> Any:
                    tracer.counts[counter] += len(args[1])
                    return result

            elif label == "PipelineCompiler.compile_fresh":
                invoke = self.name_id(PIPELINE_SPAN, "pipeline")

                def after(args: tuple, result: Any) -> Any:
                    compiler, stage = args[0], args[1]
                    key = stage_signature(stage, compiler.width)
                    if key is not None:
                        tracer.compiled_signatures.add(key)
                    result.fn = tracer._timed(result.fn, invoke, None)
                    return result

            elif label == "Executor.execute_process":

                def after(args: tuple, result: Any) -> Any:
                    return tracer.proxy(result)

            original = owner.__dict__[attr]
            name = self.name_id(f"{layer}:{label}", layer)
            self._patch(owner, attr, self._timed(original, name, after))

        process = Simulator.__dict__["process"]

        def traced_process(sim: Any, gen: Any, name: str = "") -> Any:
            return process(sim, tracer.proxy(gen), name=name)

        self._patch(Simulator, "process", traced_process)

        init = MemMove.__dict__["__init__"]

        def traced_init(mover: Any, *args: Any, **kwargs: Any) -> None:
            init(mover, *args, **kwargs)
            tracer.mem_moves.append(mover)

        self._patch(MemMove, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.spans) // 6

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a Chrome trace-event ("X") record."""
        spans = self.spans
        origin = min(spans[4::6], default=0)
        with open(path, "w") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for index in range(0, len(spans), 6):
                span_id, parent, name, qid, start, end = spans[index : index + 6]
                record = {
                    "name": self.names[name],
                    "cat": self.name_layer[name],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "args": {
                        "id": span_id,
                        "parent": parent,
                        "query": self.qids[qid] if qid >= 0 else None,
                    },
                }
                out.write(",\n" if index else "")
                out.write(json.dumps(record, separators=(",", ":")))
            out.write("\n]}\n")


def _qid_from_frame(gen: Any) -> Optional[str]:
    """Query id from a fresh process generator's arguments, if any."""
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return None
    local = frame.f_locals
    for key in ("session", "query"):
        owner = local.get(key)
        name = getattr(owner, "name", None)
        if isinstance(name, str):
            return name
    query_id = local.get("query_id")
    if isinstance(query_id, str) and query_id:
        return query_id
    query_id = getattr(local.get("self"), "query_id", None)
    return query_id if isinstance(query_id, str) and query_id else None


def unique(items: Iterable[Any]) -> list[Any]:
    """Distinct objects, by identity, in first-seen order."""
    seen: dict[int, Any] = {}
    for item in items:
        seen.setdefault(id(item), item)
    return list(seen.values())

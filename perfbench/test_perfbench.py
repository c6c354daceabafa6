"""The benchmark's own checks: the correctness gate trips on a single
corrupted row, and the tracer leaves the simulation untouched."""

import pytest

import suite
import tracer as tracer_module
from gate import Gate, GateError
from tracer import Tracer
from repro.engine.config import ExecutionConfig
from repro.engine.proteus import Proteus
from repro.hardware.sim import Simulator
from repro.ssb import generate_ssb, load_ssb, ssb_query

QUERY = "Q2.1"


@pytest.fixture(scope="module")
def tables():
    return generate_ssb(0.002, seed=5)


def run_query(tables):
    engine = Proteus(segment_rows=2048)
    load_ssb(engine, tables=tables)
    config = ExecutionConfig.hybrid(4, (0, 1), block_tuples=512)
    result = engine.query(ssb_query(QUERY), config)
    return engine, result


def test_gate_accepts_engine_rows(tables):
    gate = Gate(tables)
    _, result = run_query(tables)
    gate.check_rows(QUERY, result.rows, "test")
    assert gate.checked == 1


def test_gate_trips_on_one_corrupted_row(tables):
    gate = Gate(tables)
    _, result = run_query(tables)
    rows = list(result.rows)
    assert len(rows) > 1
    *key, value = rows[len(rows) // 2]
    rows[len(rows) // 2] = (*key, value + 1)
    with pytest.raises(GateError, match=QUERY):
        gate.check_rows(QUERY, rows, "test")
    assert gate.checked == 0


def test_gate_reports_a_failed_conservation_audit():
    class Leaky:
        def check_conservation(self):
            raise AssertionError("1 staging block(s) leaked on gpu:0")

    with pytest.raises(GateError, match="leaked"):
        Gate.check_conservation(Leaky(), "test")


def test_tracing_keeps_rows_and_event_count(tables):
    plain_engine, plain = run_query(tables)
    tracer = Tracer()
    original = Simulator.__dict__["run"]
    tracer.install()
    try:
        traced_engine, traced = run_query(tables)
    finally:
        tracer.uninstall()
    assert Simulator.__dict__["run"] is original
    assert traced.rows == plain.rows
    assert traced.seconds == plain.seconds
    assert traced_engine.sim._seq == plain_engine.sim._seq
    assert not tracer_module.absent_targets()
    assert tracer.calls_of("sim:Simulator.run") == 1
    assert tracer.layer_calls("router") > 0
    # every span closed, and a layer's self time never exceeds the run
    assert tracer.span_count() == sum(tracer.calls)
    assert 0 < tracer.self_s("router") < tracer.inclusive_s("engine:Proteus.query")


def test_traced_run_fails_when_a_tracer_target_is_gone(monkeypatch):
    gone = ("repro.engine.executor", "Executor", "renamed_away", "executor")
    monkeypatch.setattr(tracer_module, "CALLS", tracer_module.CALLS + (gone,))
    workload = suite.WORKLOADS["ssb_fig5_seq"](seed=5)
    with pytest.raises(GateError, match="renamed_away"):
        suite.trace_run(workload, Gate({}), seconds=1.0)

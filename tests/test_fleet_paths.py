"""Fleet failure paths and the un-aggregated shard merge.

The fleet smoke in ``benchmarks/test_fleet.py`` loses one replica and
fails over to the other.  These tests pin the paths it never reaches:

* **exhaustion** — every replica of a shard is lost, so each query's
  failover chain runs dry and the query fails typed
  (``fleet_exhausted``, :class:`FleetExhaustedError`);
* **edge refusal** — a backend budget that can never fit the query makes
  ``submit`` raise at the fleet edge; every hop resolves ``fatal``
  through the refused-edge stand-in and the query fails with the typed
  :class:`AdmissionError` instead of being re-dispatched;
* **un-aggregated merge** — filter, ORDER BY + LIMIT and bare LIMIT
  plans over the range-sharded fact table gather to the reference
  executor's rows.
"""

import pytest

from repro import EngineFleet, ExecutionConfig, ResourceBudget, col, scan
from repro.engine.failover import FleetExhaustedError
from repro.engine.faults import FaultPlan, ServerLossFault
from repro.engine.reference import ReferenceExecutor
from repro.engine.scheduler import AdmissionError
from repro.ssb import generate_ssb, ssb_query

CPU4 = ExecutionConfig.cpu_only(4, block_tuples=4096)


@pytest.fixture(scope="module")
def tables():
    return generate_ssb(scale_factor=0.005, seed=13)


def _fleet(tables, **kwargs) -> EngineFleet:
    """4 backends, 2 range shards of ``lineorder``, 2 replicas each:
    shard 0 lives on srv0 and srv2, shard 1 on srv1 and srv3."""
    fleet = EngineFleet(num_servers=4, replication=2, segment_rows=2048, **kwargs)
    fleet.load_tables(tables, fact="lineorder")
    return fleet


def _drive(fleet, query_ids):
    queries = [fleet.submit(ssb_query(qid), CPU4, name=qid) for qid in query_ids]
    fleet.run()
    for query in queries:
        for chain in query.chains.values():
            chain.assert_closed()
    fleet.check_conservation()
    return queries


def test_losing_every_replica_of_a_shard_exhausts_the_chain(tables):
    plan = FaultPlan(
        server_losses=(ServerLossFault("srv0", 1e-4), ServerLossFault("srv2", 1e-4))
    )
    fleet = _fleet(tables, fault_plan=plan)
    for query in _drive(fleet, ["Q1.1", "Q2.1", "Q3.1"]):
        assert query.status == "failed", query.name
        assert query.error_class == "fleet_exhausted", query.name
        assert isinstance(query.error, FleetExhaustedError), query.name
        outcomes = [attempt.outcome for attempt in query.chains[0].attempts]
        assert outcomes == ["server_lost"], query.name
        # the surviving shard still answered; only shard 0 ran dry
        assert [a.outcome for a in query.chains[1].attempts] == ["ok"]


def test_edge_refusal_fails_typed_without_failover(tables):
    fleet = _fleet(tables, server_kwargs={"budget": ResourceBudget(cpu_cores=1)})
    for query in _drive(fleet, ["Q1.1", "Q2.1"]):
        assert query.status == "failed", query.name
        assert query.error_class == "fatal", query.name
        assert isinstance(query.error, AdmissionError), query.name
        assert query.failovers == 0, query.name
        hops = query.attempts()
        assert len(hops) == len(query.chains) == 2
        assert all(hop.outcome == "fatal" for hop in hops), query.name
    for fs in fleet.servers:
        assert fs.inflight == 0
        assert fs.server.sessions == []  # refused at the edge: never queued


LINEORDER = scan("lineorder", ["lo_orderkey", "lo_revenue", "lo_quantity"])

#: (plan, config, exact): a bare LIMIT keeps the first rows in arrival
#: order, which is table order only with one consumer per backend
MERGE_CASES = {
    "filter": (LINEORDER.filter(col("lo_quantity") < 3), CPU4, False),
    "top": (LINEORDER.order_by("lo_revenue").take(5), CPU4, True),
    "take": (LINEORDER.take(7), ExecutionConfig.cpu_only(1), True),
}


@pytest.mark.parametrize("case", sorted(MERGE_CASES))
def test_unaggregated_merge_matches_reference(tables, case):
    plan, config, exact = MERGE_CASES[case]
    fleet = _fleet(tables)
    query = fleet.submit(plan, config, name=case)
    fleet.run()
    fleet.check_conservation()
    assert query.status == "done"
    assert len(query.shard_results) == 2  # scattered to both shards
    expected = ReferenceExecutor(tables).execute(plan)
    if exact:
        assert query.result.rows == expected
    else:
        assert sorted(query.result.rows) == sorted(expected)

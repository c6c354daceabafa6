"""Correctness gate: every result the benchmark times is checked here.

Rows are compared, sorted, with :class:`ReferenceExecutor` over the same
tables (SSB aggregates are exact integer sums, so equality is exact), and
every server or fleet drive must pass ``check_conservation()``.  A failed
check raises :class:`GateError`; the runner then reports the run as
incorrect and prints no metric values.
"""

from __future__ import annotations

from typing import Any

from repro.engine.reference import ReferenceExecutor
from repro.ssb import ssb_query


class GateError(AssertionError):
    """A result row or a conservation check was wrong."""


class Gate:
    """Reference rows for one dataset, computed once per query id."""

    def __init__(self, tables: dict) -> None:
        self._reference = ReferenceExecutor(tables)
        self._expected: dict[str, list[tuple]] = {}
        #: results compared so far (each one matched)
        self.checked = 0

    def expected(self, qid: str) -> list[tuple]:
        rows = self._expected.get(qid)
        if rows is None:
            rows = sorted(self._reference.execute(ssb_query(qid)))
            self._expected[qid] = rows
        return rows

    def check_rows(self, qid: str, rows: list[tuple], where: str) -> None:
        got = sorted(rows)
        want = self.expected(qid)
        if got != want:
            wrong = next(
                (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                min(len(got), len(want)),
            )
            raise GateError(
                f"{where}: {qid} returned {len(got)} rows, reference "
                f"{len(want)}; first difference at sorted row {wrong}"
            )
        self.checked += 1

    @staticmethod
    def check_conservation(owner: Any, where: str) -> None:
        """Run an EngineServer's or EngineFleet's conservation audit."""
        try:
            owner.check_conservation()
        except AssertionError as error:
            raise GateError(f"{where}: conservation failed: {error}") from error

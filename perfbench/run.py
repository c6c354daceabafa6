"""Run one benchmark workload; the last line of stdout is a JSON result.

    python3 perfbench/run.py --workload ssb_fig5_seq --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then once under the
per-layer tracer, prints the per-layer metrics and writes the spans to
``.perfbench/`` as Chrome trace-event JSON.  Every result row is checked
against the reference executor and every server or fleet drive against
its conservation audit; a failed check makes the run incorrect, reports
no metric values and exits with status 1.  The program under test is
imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=42, help="SSB data and fault plan (default 42)"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program is missing: no {SRC}/repro", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite

    if args.workload not in suite.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(suite.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    return suite.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark entry point.

    python3 pellbench/run.py --workload decrypt-2048-r3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
Per workload it prints a report (named metrics with units and sample
counts, failures, run metadata), then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs the four workloads in turn.  Spans of a traced
run go to ``.bench_out/``.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decrypt-2048-r3", "decrypt-2048-pp31", "cli-session-1024", "factor-1024")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pellbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pellrsa" / "__init__.py").is_file():
        print(f"pellbench: no pellrsa sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from pellbench.harness import run_workload

    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        result, report = run_workload(
            name, args.seed, args.seconds, args.trace, ROOT, spans_dir=ROOT / ".bench_out"
        )
        print(json.dumps(report, indent=1))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

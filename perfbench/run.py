"""The repository benchmark: one command per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0

Workloads: ``solve``, ``track``, ``serve``, ``sharded-net`` (see
``perfbench/README.md`` for what each measures and why).  With
``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` half the time runs untraced and half with span
wrappers installed, and the run reports the per-layer split.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any check failed and 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("solve", "track", "serve", "sharded-net")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import batch, checks, metrics, serving

    digest = checks.source_digest(ROOT / "src" / "repro")
    repeat = checks.RepeatCheck(
        ROOT / ".perfbench_counts" / digest
        / f"{args.workload}-{args.seed}.json")
    traced = bool(args.trace)
    if args.workload == "serve":
        run = serving.run(ROOT, args.seed, args.seconds, traced, repeat)
    else:
        run = batch.run(args.workload, args.seed, args.seconds, traced,
                        repeat)

    spec = metrics.PER_LAYER if traced else metrics.END_TO_END
    missing = sorted(set(spec) - set(run.metrics))
    if missing:
        run.problems.append(f"metrics not measured: {', '.join(missing)}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for note in run.notes:
        print(f"  {note}")
    for name, (unit, better) in spec.items():
        value = run.metrics.get(name, float("nan"))
        print(f"  {name:30s} {value:>16.6g} {unit:6s} ({better} is better)")
    if traced:
        layers = sum(run.metrics[f"{layer}.self_s"]
                     for layer in metrics.OP_LAYERS)
        print(f"  layer self times {layers:.6f} s + unattributed "
              f"{run.metrics['unattributed_s']:.6f} s = traced op "
              f"{run.metrics['trace.op_s']:.6f} s")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print(f"  attempted {run.attempted}, failed {run.failed}")
    correct = not run.problems and run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics.get(name), "unit": unit}
                    for name, (unit, _) in spec.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

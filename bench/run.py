"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, untraced then traced

Run it from the repository root; it imports semindex from ``src/`` and
works in ``.bench_work/``, which it removes again (a traced run leaves its
spans there as ``spans-<workload>.jsonl``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, from
untraced operations; with ``--trace 1`` they are the per-layer ones, from
one more operation run under the tracer. Lines before it are a readable
report. The exit code is 0 when every metric was measured, 1 when the
program failed so badly that some could not be, and 2 when there is no
semindex source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
WORKLOADS = ("pipeline", "search", "ingest")


def _import_semindex() -> None:
    """Import semindex from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import semindex
    except ImportError as exc:
        print(f"bench: cannot import semindex from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(semindex.__file__).resolve().is_relative_to(src):
        print(f"bench: semindex was imported from {semindex.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("all",) + WORKLOADS, default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    _import_semindex()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        size=workloads.SIZES[args.workload],
        golden=golden[args.workload] if args.seed == golden["seed"] else None,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = outcome.layers if args.trace else outcome.metrics
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {ctx.workers}  size {ctx.size}")
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in measured.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted
                    if m["name"] in measured
                },
            }
        )
    )
    return 0 if all(m["name"] in measured for m in wanted) else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload untraced and then traced, each in a process of its own."""
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", trace]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
            sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload fig14-packet --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports every end-to-end metric; with
``--trace 1`` it is the traced run and reports every per-layer metric.
Each metric prints by name with its value, unit and sample count; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A result record carrying the hardware fingerprint is written under
``.perfbench/records/`` for ``compare.py``.  The exit code is 0 when
every row checked out, 1 when a row was wrong or an operation failed,
2 when the checkout holds no program to benchmark.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import pb_common as pc

WORKLOADS = ("fig14-packet", "small-pool", "serve-mix")
#: Problems printed per run (all are counted).
SHOW_PROBLEMS = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=pc.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, workdir: str) -> pc.Outcome:
    if args.workload == "serve-mix":
        import pb_serve

        if args.trace:
            return pb_serve.run_traced(args.seed, workdir)
        return pb_serve.run(args.seed, args.seconds, workdir)
    import pb_sweeps

    if args.trace:
        return pb_sweeps.run_traced(args.workload, args.seed, workdir)
    return pb_sweeps.run(args.workload, args.seed, args.seconds, workdir)


def write_record(args: argparse.Namespace, out: pc.Outcome) -> str:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.time(),
        "fingerprint": pc.fingerprint(),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "samples": m.samples}
            for name, m in out.metrics.items()
        },
    }
    directory = os.path.join(pc.WORK, "records")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def report(args: argparse.Namespace, out: pc.Outcome, record_path: str) -> None:
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    for note in out.notes:
        print(f"  {note}")
    print(f"  {'metric':<24} {'value':>14} {'unit':<6} samples")
    for name, m in out.metrics.items():
        print(f"  {name:<24} {m.value:>14.6g} {m.unit:<6} {m.samples}")
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'failed_frac':<24} {frac:>14.6g} {'1':<6} {out.attempted}")
    for problem in out.problems[:SHOW_PROBLEMS]:
        print(f"  WRONG {problem}")
    if len(out.problems) > SHOW_PROBLEMS:
        print(f"  ... {len(out.problems) - SHOW_PROBLEMS} more")
    print(f"  record: {os.path.relpath(record_path, pc.ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not pc.program_on_path():
        print(
            f"error: no program to benchmark: {pc.SRC}/repro is missing",
            file=sys.stderr,
        )
        return 2
    os.chdir(pc.ROOT)
    workdir = os.path.join(
        pc.WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    )
    os.makedirs(workdir)
    try:
        out = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = pc.PER_LAYER if args.trace else pc.END_TO_END
    missing = sorted(set(expected) - set(out.metrics))
    if missing:
        raise RuntimeError(f"run did not measure {', '.join(missing)}")
    report(args, out, write_record(args, out))
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": m.value, "unit": m.unit}
                    for name, m in out.metrics.items()
                    if name in expected
                },
            }
        )
    )
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

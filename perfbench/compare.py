"""Compare two sets of result records, metric by metric and layer by layer.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files, or directories of them (``run.py``
writes one per run under ``.perfbench/records/``).  Records are grouped
by workload and by traced/untraced; each metric is compared by its
median over a side's records.

- End-to-end metrics: both medians, the change, and ``WORSE`` when the
  change is worse than the metric's bound in ``BENCHMARK.json``.
- Per-layer metrics: the change of every metric, and the layer whose
  self time changed most, by name.

Exit codes: 0 when no end-to-end metric got worse beyond its bound, 1
when one did, 2 when the two sides do not compare like for like (their
fingerprints differ in CPU count, CPU model, Python version or
benchmark code), when a side holds no records, or when one side holds a
(workload, traced/untraced) group the other lacks.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

import pb_common as pc
import pb_trace

#: Per-layer metrics that are exclusive (self) times of one layer.
SELF_TIME = sorted(
    set(pb_trace.SPAN_LAYER.values())
    | set(pb_trace.FOLD_LAYER.values())
    | {"other.self_s"}
)


def load_records(paths: Sequence[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        files = (
            [os.path.join(path, n) for n in sorted(os.listdir(path)) if n.endswith(".json")]
            if os.path.isdir(path)
            else [path]
        )
        for name in files:
            with open(name) as handle:
                records.append(json.load(handle))
    return records


def fingerprint_mismatches(
    base: List[Dict[str, Any]], new: List[Dict[str, Any]]
) -> List[str]:
    """Fingerprint fields on which the records disagree."""
    problems = []
    for key in pc.LIKE_FOR_LIKE:
        values = sorted({str(r["fingerprint"].get(key)) for r in base + new})
        if len(values) > 1:
            problems.append(f"{key}: {' vs '.join(values)}")
    return problems


def group_mismatches(
    base: List[Dict[str, Any]], new: List[Dict[str, Any]]
) -> List[str]:
    """(workload, trace) groups that only one side holds."""

    def groups(records):
        return {(r["workload"], r["trace"]) for r in records}

    problems = []
    for side, only in (
        ("BASE", groups(base) - groups(new)),
        ("NEW", groups(new) - groups(base)),
    ):
        for workload, trace in sorted(only):
            problems.append(f"only {side} has {workload} trace={trace}")
    return problems


def _medians(records: List[Dict[str, Any]]) -> Dict[Tuple[str, int], Dict[str, float]]:
    values: Dict[Tuple[str, int], Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for record in records:
        group = values[(record["workload"], record["trace"])]
        for name, metric in record["metrics"].items():
            group[name].append(metric["value"])
    return {
        group: {name: pc.median(v) for name, v in metrics.items()}
        for group, metrics in values.items()
    }


def compare(
    base: List[Dict[str, Any]],
    new: List[Dict[str, Any]],
    bounds: Dict[str, float],
) -> Dict[Tuple[str, int], Dict[str, Any]]:
    """Per (workload, trace) group: one row per metric, the regressions,
    and (traced groups) the layer with the largest self-time change."""
    base_m = _medians(base)
    new_m = _medians(new)
    result = {}
    for group in sorted(set(base_m) & set(new_m)):
        rows = []
        worse = []
        for name in base_m[group]:
            if name not in new_m[group]:
                continue
            a, b = base_m[group][name], new_m[group][name]
            change = (b - a) / a if a else (0.0 if b == a else float("inf"))
            row = {"metric": name, "base": a, "new": b, "change": change}
            if name in pc.END_TO_END:
                better = pc.END_TO_END[name][1]
                loss = -change if better == "higher" else change
                row["worse"] = loss > bounds[name]
                if row["worse"]:
                    worse.append(name)
            rows.append(row)
        entry: Dict[str, Any] = {"rows": rows, "worse": worse}
        deltas = {
            r["metric"]: r["new"] - r["base"] for r in rows if r["metric"] in SELF_TIME
        }
        if deltas:
            layer = max(deltas, key=lambda m: abs(deltas[m]))
            entry["largest_layer"] = layer
            entry["largest_delta_s"] = deltas[layer]
        result[group] = entry
    return result


def load_bounds() -> Dict[str, float]:
    with open(os.path.join(pc.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {m["name"]: m["bound"] for m in bench["end_to_end"]}


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = load_records([argv[0]]), load_records([argv[1]])
    if not base or not new:
        print("error: a side holds no records", file=sys.stderr)
        return 2
    mismatches = fingerprint_mismatches(base, new)
    if mismatches:
        print("refused: the records do not compare like for like:")
        for line in mismatches:
            print(f"  {line}")
        return 2
    missing = group_mismatches(base, new)
    if missing:
        print("refused: the two sides do not hold the same groups:")
        for line in missing:
            print(f"  {line}")
        return 2
    result = compare(base, new, load_bounds())
    for (workload, trace), entry in result.items():
        kind = "per-layer" if trace else "end-to-end"
        print(f"{workload} ({kind})")
        for row in entry["rows"]:
            flag = "  WORSE" if row.get("worse") else ""
            print(
                f"  {row['metric']:<24} {row['base']:>12.5g} -> "
                f"{row['new']:>12.5g}  {row['change']:+8.2%}{flag}"
            )
        if "largest_layer" in entry:
            print(
                f"  largest self-time change: {entry['largest_layer']} "
                f"({entry['largest_delta_s']:+.4f} s)"
            )
    return 1 if any(e["worse"] for e in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json reports and emit a Markdown diff.

Usage: bench_diff.py BASELINE_DIR CURRENT_DIR [--threshold PCT]

Each BENCH_<binary>.json (written by the vendored criterion shim under
MBAA_BENCH_JSON) is an array of {group, id, mean_ns, min_ns, samples, unit}
records — wall-clock timings (unit "ns") from the criterion-style benches
and report-style metrics (rounds, thresholds, contraction factors, with
their own units) from the table1/table2/convergence benches. *Every*
BENCH_*.json file in the two directories is diffed; benchmarks are matched
by (file name, group, id), mean_ns is compared, and any regression above
the threshold (default 15%) is flagged. The "unit" field is optional (old
baselines without it read as "ns") and decides the regression direction:
timings and counts regress upward, throughput units ("…/s", e.g. the
hot-path bench's "rounds/s") regress downward.

The Markdown goes to stdout (append it to $GITHUB_STEP_SUMMARY in CI). The
exit code is always 0: CI smoke runners are noisy, so regressions are
flagged for humans, not used to fail the build.
"""

import argparse
import json
import sys
from pathlib import Path


def load_records(directory: Path) -> dict:
    """Map (file, group, id) -> record for every BENCH_*.json in directory."""
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            entries = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"<!-- skipping unreadable {path.name}: {err} -->")
            continue
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(entry.get("mean_ns"), (int, float)):
                print(f"<!-- skipping malformed record in {path.name}: {entry!r} -->")
                continue
            key = (path.name, entry.get("group", ""), entry.get("id", ""))
            records[key] = entry
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="regression threshold in percent (default 15)")
    args = parser.parse_args()

    print("## Benchmark diff")
    print()

    # Missing artifacts are expected states, not failures: the first run of
    # a branch has no baseline, artifact retention expires old ones, and a
    # skipped bench step leaves no current results. Each case gets its own
    # note and a clean exit so CI summaries say *why* there is no table.
    if not args.baseline.is_dir():
        print(f"No baseline directory at `{args.baseline}` "
              "(first run, or the previous artifact expired) — nothing to compare.")
        return 0
    if not args.current.is_dir():
        print(f"No current-results directory at `{args.current}` "
              "(bench step skipped or artifact path changed) — nothing to compare.")
        return 0

    baseline = load_records(args.baseline)
    current = load_records(args.current)
    if not baseline:
        print(f"`{args.baseline}` holds no BENCH_*.json records — nothing to compare.")
        return 0
    if not current:
        print(f"`{args.current}` holds no BENCH_*.json records — nothing to compare.")
        return 0

    files = sorted({key[0] for key in current} | {key[0] for key in baseline})
    print(f"Diffing {len(files)} report file(s): " + ", ".join(f"`{f}`" for f in files))
    print()

    rows = []
    regressions = 0
    added = 0
    for key, cur in sorted(current.items()):
        base = baseline.get(key)
        name = f"{key[1]}/{key[2]}"
        unit = cur.get("unit", "ns")
        base_mean = base.get("mean_ns") if base is not None else None
        # A row present only in the current run (a freshly added bench,
        # e.g. a new phase-breakdown metric) has nothing to diff against:
        # it must be reported as "new", never flagged as a regression.
        if not isinstance(base_mean, (int, float)):
            added += 1
            rows.append((name, "-", cur["mean_ns"], "new", "", unit))
            continue
        # Report-style metric rows (counts, thresholds) may legitimately be
        # zero; a move away from zero has no percentage but is exactly the
        # kind of change worth flagging.
        if base_mean == 0:
            if cur["mean_ns"] == 0:
                rows.append((name, base_mean, cur["mean_ns"], "+0.0%", "", unit))
            else:
                regressions += 1
                rows.append((name, base_mean, cur["mean_ns"], "from 0", "⚠️ changed from 0", unit))
            continue
        change = (cur["mean_ns"] - base_mean) / base_mean * 100.0
        # Timings and counts regress upward; throughput units (anything
        # per second, e.g. engine_batch's "rounds/s") regress downward.
        higher_is_better = unit.endswith("/s")
        regressed = change < -args.threshold if higher_is_better else change > args.threshold
        improved = change > args.threshold if higher_is_better else change < -args.threshold
        flag = ""
        if regressed:
            flag = f"⚠️ regression > {args.threshold:.0f}%"
            regressions += 1
        elif improved:
            flag = "✅ improvement"
        rows.append((name, base_mean, cur["mean_ns"], f"{change:+.1f}%", flag, unit))

    removed = sorted(set(baseline) - set(current))

    def fmt(value, unit):
        if not isinstance(value, (int, float)):
            return value
        if unit == "ns":
            return f"{value:,.0f} ns"
        return f"{value:g} {unit}"

    print("| benchmark | baseline mean | current mean | change | |")
    print("|---|---|---|---|---|")
    for name, base_ns, cur_ns, change, flag, unit in rows:
        print(f"| {name} | {fmt(base_ns, unit)} | {fmt(cur_ns, unit)} | {change} | {flag} |")
    # Rows present only in the baseline (a deleted or renamed bench) keep
    # their last known value in the table so the summary records what
    # disappeared, not just that something did.
    for key in removed:
        base = baseline[key]
        unit = base.get("unit", "ns")
        print(f"| {key[1]}/{key[2]} | {fmt(base['mean_ns'], unit)} | - | removed | |")
    print()
    notes = []
    if added:
        notes.append(f"{added} new row(s)")
    if removed:
        notes.append(f"{len(removed)} removed row(s)")
    churn = f" ({', '.join(notes)})" if notes else ""
    if regressions:
        print(f"**{regressions} benchmark(s) regressed by more than "
              f"{args.threshold:.0f}% — worth a look before merging.**{churn}")
    else:
        print(f"No regression above {args.threshold:.0f}%.{churn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

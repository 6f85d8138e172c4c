#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark between two revisions.

Usage:
    ab.py A B --workload W [--seed S] [--seconds T] [--pairs N] [--trace 0|1]
          [--scratch DIR]
    ab.py A --aa --workload W ...      (A/A: one build against itself)

Each revision (anything `git rev-parse` accepts) is exported with
`git archive` into its own directory under the scratch path (default
`.ab/` at the repository root), and each builds into its own
`CARGO_TARGET_DIR` beside it, so the two sides never share build output
and the working tree is never touched. The script then runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace X`
inside each export, in pairs, alternating which side runs first (A then B
in even pairs, B then A in odd ones), so slow drift on a shared host hits
both sides alike. The first call on each side also builds it; builds are
not timed by `run.py` itself.

For every metric the last JSON line of `run.py` reports, it prints A's and
B's median with their quartiles, B's change of the median, and in how many
pairs B was better than A, in the direction `BENCHMARK.json` declares.
A pair where either side reports failed runs is printed and counted. A/A
mode (`--aa`) runs the one build of A on both sides: its spread and win
counts show what noise alone produces.

Only git, cargo (offline, through `run.py`) and python3 are used, and
nothing under `perfbench/` is edited. Exit code: 0 when every run
reported `"correct": true`, 1 otherwise, 2 on usage or build errors.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, scratch):
    """Exports `rev` under `scratch` once; returns (checkout, target dir)."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    checkout = os.path.join(scratch, f"src-{sha[:12]}")
    if not os.path.isdir(checkout):
        os.makedirs(checkout + ".tmp", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", checkout + ".tmp"], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
        os.rename(checkout + ".tmp", checkout)
    return checkout, os.path.join(scratch, f"target-{sha[:12]}")


def run_once(side, args):
    """One `run.py` call in a side's export; returns its parsed result."""
    checkout, target = side
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(argv, cwd=checkout, env=env, stdin=subprocess.DEVNULL,
                            capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stderr[-3000:])
        raise RuntimeError(f"run.py failed in {checkout} ({result.returncode})")
    return json.loads(lines[-1])


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in declared.get(key, [])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(pairs, better):
    names = sorted({name for a, b in pairs for name in a["metrics"]} &
                   {name for a, b in pairs for name in b["metrics"]})
    print(f"{'metric':<30} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'B vs A':>8} {'B wins':>7}")
    for name in names:
        rows = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in pairs
                if name in a["metrics"] and name in b["metrics"]]
        a_q, b_q = quartiles([r[0] for r in rows]), quartiles([r[1] for r in rows])
        direction = better.get(name)
        if direction == "higher":
            wins = sum(b > a for a, b in rows)
        elif direction == "lower":
            wins = sum(b < a for a, b in rows)
        else:
            wins = None
        change = (b_q[1] / a_q[1] - 1) * 100 if a_q[1] else float("nan")
        fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        won = "-" if wins is None else f"{wins}/{len(rows)}"
        print(f"{name:<30} {fmt(a_q):>30} {fmt(b_q):>30} {change:>+7.1f}% {won:>7}")
    failed = [(i, a["failed"], b["failed"]) for i, (a, b) in enumerate(pairs)
              if a["failed"] or b["failed"] or not (a["correct"] and b["correct"])]
    for i, fa, fb in failed:
        print(f"pair {i}: failed runs A {fa}, B {fb}")
    return not failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline revision")
    parser.add_argument("b", nargs="?", help="changed revision (omit with --aa)")
    parser.add_argument("--aa", action="store_true", help="run A against itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", default=os.path.join(ROOT, ".ab"))
    args = parser.parse_args()
    if args.aa == (args.b is not None):
        parser.error("give either B or --aa")

    try:
        os.makedirs(args.scratch, exist_ok=True)
        a = export(args.a, os.path.abspath(args.scratch))
        b = a if args.aa else export(args.b, os.path.abspath(args.scratch))
        pairs = []
        for i in range(args.pairs):
            a_first = i % 2 == 0
            first = run_once(a if a_first else b, args)
            second = run_once(b if a_first else a, args)
            pairs.append((first, second) if a_first else (second, first))
            print(f"pair {i + 1}/{args.pairs} done ({'A' if a_first else 'B'} first)",
                  file=sys.stderr, flush=True)
    except (RuntimeError, subprocess.CalledProcessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    label_b = f"{args.a} (A/A)" if args.aa else args.b
    print(f"A = {args.a}, B = {label_b}: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s per run, trace {args.trace}, {len(pairs)} pairs")
    return 0 if report(pairs, directions()) else 1


if __name__ == "__main__":
    sys.exit(main())

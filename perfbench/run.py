#!/usr/bin/env python3
"""End-to-end benchmark of the `mbaa` CLI: scenario file -> report.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark builds the `mbaa` binary and the `perfbench-trace` helper
from source (release profile, into $CARGO_TARGET_DIR, default
`.bench_build`), generates the workload's scenario documents from
`--seed`, checks each with `mbaa validate`, and then:

* `--trace 0` repeats the workload through the real CLI at
  `--workers <nproc>`, each repetition in a fresh scratch directory, until
  `--seconds` have passed, and reports the end-to-end metrics (medians
  over repetitions; latency percentiles over every chunk of every
  repetition);
* `--trace 1` runs the workload once through the CLI for reference
  artifacts, then lets `perfbench-trace` replay the same CLI call
  sequence at one worker with spans around each layer's public functions,
  and reports the per-layer metrics.

Every invocation first runs the workload at REFERENCE_SEED and compares
the digest of each artifact with the one committed in
`perfbench/digests.json`. Every repetition is checked too: each run must
reach agreement with validity (all points sit above the paper's bounds),
artifacts must be identical across repetitions and between the CLI and
the traced replay, and the checkpointed sweep's merged report must equal
an uninterrupted `mbaa run --out`. Any failed check counts every run of
the invocation as failed.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Scratch files live in `.bench_work/` and are deleted on exit.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_SEED = 0
MIN_REPS = 3
CHUNK_SIZE = 16


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that leaves nothing to report (a build or a CLI process
    failed): the benchmark exits non-zero without a result."""


# Failed output checks. Any entry marks every run of the invocation as
# failed; the timings are still reported.
PROBLEMS = []


def problem(message):
    log(f"output check failed: {message}")
    PROBLEMS.append(message)


# ---------------------------------------------------------------------------
# Workload generation: every document is a fixed function of the seed. The
# seed moves run seeds, inputs and small parameter jitter, never the size of
# the work, so figures from different seeds are comparable.
# ---------------------------------------------------------------------------

def scenario_doc(name, scenario, seed_start, seed_count, sweep):
    return {
        "format": "mbaa-scenario/1",
        "name": name,
        "scenario": scenario,
        "seeds": {"start": seed_start, "count": seed_count},
        "sweep": sweep,
    }


def gen_complete_large_n(rng):
    # Every model at n = 241..361, 64 seeds per point: two full 32-lane
    # packs on the fast path. Each f sweep holds its first point's margin
    # above the bound n > c*f; Bonnet and Buhrman need a margin to converge
    # within the default round budget under the split adversary.
    docs = []
    for model, multiplier, margin, fs in (
        ("garay", 4, 0, [60, 70, 80, 90]),
        ("bonnet", 5, 40, [40, 48, 56, 64]),
        ("sasaki", 6, 0, [40, 47, 54, 60]),
        ("buhrman", 3, 60, [60, 70, 80, 90]),
    ):
        scenario = {
            "model": model,
            "n": multiplier * fs[0] + 1 + margin,
            "f": fs[0],
            "workload": {"random-uniform": {"lo": 0, "hi": 1}},
            "observe": "summary",
        }
        docs.append(scenario_doc(f"complete-{model}", scenario,
                                 rng.randrange(2**40), 64, {"f": {"values": fs}}))
    return docs


def gen_partial_dynamic_mix(rng):
    # n = 128, f = 2 under Garay: four groups of roughly equal wall time.
    # 64 seeds per point make two packs, so both workers of a two-CPU host
    # have work in every point.
    base = {
        "model": "garay",
        "n": 128,
        "f": 2,
        "max_rounds": 2000,
        "workload": {"random-uniform": {"lo": 0, "hi": 1}},
        "observe": "summary",
    }
    ring = dict(base)
    churn = dict(base, schedule={"churn": {"base": "complete", "flip_rate": 0.1}},
                 link_faults=[{"from": None, "to": None, "omit": 0.05, "delay": None}])
    slow_senders = rng.sample(range(128), 4)
    delay = dict(base, link_faults=[{"from": None, "to": None, "omit": None, "delay": 1}] + [
        {"from": s, "to": None, "omit": None, "delay": 2} for s in sorted(slow_senders)])
    regular = dict(base)
    flip_rates = [round(r + rng.uniform(-0.02, 0.02), 4) for r in (0.1, 0.2, 0.3, 0.4)]
    return [
        scenario_doc("mix-ring", ring, rng.randrange(2**40), 64,
                     {"connectivity": {"topologies": [{"ring": {"k": 10}}, {"ring": {"k": 12}}]}}),
        scenario_doc("mix-churn", churn, rng.randrange(2**40), 64,
                     {"churn": {"flip_rates": flip_rates}}),
        scenario_doc("mix-delay", delay, rng.randrange(2**40), 64,
                     {"connectivity": {"topologies": ["complete", {"ring": {"k": 48}}]}}),
        scenario_doc("mix-regular", regular, rng.randrange(2**40), 64,
                     {"degrees": {"degrees": [9, 11, 13]}}),
    ]


def gen_small_points_checkpoint(rng):
    # 2000 shape-compatible churn points at n = 9, 12 seeds each. Every
    # point runs the document's 12 seeds, so those 12 input vectors alone
    # set the mean rounds per run (9.1 to 10.4 between seed ranges); the
    # run seeds are therefore fixed and the seed moves the flip rates only.
    flip_rates = sorted(rng.sample(range(3000), 2000))
    scenario = {
        "model": "garay",
        "n": 9,
        "f": 2,
        "schedule": {"churn": {"base": "complete", "flip_rate": 0.0}},
        "workload": {"random-uniform": {"lo": 0, "hi": 1}},
        "observe": "summary",
    }
    return [scenario_doc("small-points", scenario, 1000, 12,
                         {"churn": {"flip_rates": [r / 10000 for r in flip_rates]}})]


def gen_events_telemetry(rng):
    # n = 64 points on the complete graph and two rings, replayed with events.
    scenario = {
        "model": "garay",
        "n": 64,
        "f": 3,
        "max_rounds": 1000,
        "workload": {"random-uniform": {"lo": 0, "hi": 1}},
        "observe": "summary",
    }
    topologies = ["complete", {"ring": {"k": 8}}, {"ring": {"k": 16}}]
    return [scenario_doc("events", scenario, rng.randrange(2**40), 192,
                         {"connectivity": {"topologies": topologies}})]


# kind: how the CLI drives the documents ("run", "events", "checkpoint").
WORKLOADS = {
    "complete_large_n": ("run", gen_complete_large_n),
    "partial_dynamic_mix": ("run", gen_partial_dynamic_mix),
    "small_points_checkpoint": ("checkpoint", gen_small_points_checkpoint),
    "events_telemetry": ("events", gen_events_telemetry),
}


def write_docs(workload, seed, directory):
    os.makedirs(directory, exist_ok=True)
    docs = WORKLOADS[workload][1](random.Random(f"{workload}/{seed}"))
    paths = []
    for doc in docs:
        path = os.path.join(directory, f"{doc['name']}.scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Command:
    """One finished CLI process: times, exit code, peak RSS, markers."""

    def __init__(self, start, end, code, rss_kb, stamps, tail):
        self.start = start
        self.end = end
        self.code = code
        self.rss_kb = rss_kb
        self.stamps = stamps
        self.tail = tail


def spawn(argv, timed=None, stderr_path=None):
    """Runs argv to completion. `timed` names the stream whose markers are
    timestamped: "stderr" counts `\\r` (the `--progress` line, one per
    point), "stdout" counts lines starting with `chunk ` (one per written
    checkpoint chunk). The other stream goes to a sink or a file."""
    stderr_sink = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if timed == "stdout" else subprocess.DEVNULL,
            stderr=subprocess.PIPE if timed == "stderr" else stderr_sink,
        )
        try:
            stamps, tail = [], b""
            stream = proc.stdout if timed == "stdout" else proc.stderr
            if stream is not None:
                fd = stream.fileno()
                pending = b""
                while True:
                    data = os.read(fd, 1 << 16)
                    now = time.perf_counter()
                    if not data:
                        break
                    if timed == "stderr":
                        stamps.extend([now] * data.count(b"\r"))
                    else:
                        lines = (pending + data).split(b"\n")
                        pending = lines.pop()
                        stamps.extend(now for line in lines if line.startswith(b"chunk "))
                    tail = (tail + data)[-4096:]
                stream.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    finally:
        if stderr_path:
            stderr_sink.close()
    if stderr_path and os.path.exists(stderr_path):
        with open(stderr_path, "rb") as handle:
            tail = handle.read()[-4096:]
    return Command(start, end, proc.returncode, usage.ru_maxrss, stamps, tail)


def check_call(argv, what, cpu=None):
    """Runs argv to completion and returns its stdout; `cpu` pins it."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    result = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, preexec_fn=pin,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if result.returncode != 0:
        raise BenchError(f"{what} failed ({result.returncode}): "
                         f"{result.stderr.decode(errors='replace')[-2000:]}")
    sys.stderr.write(result.stderr.decode(errors="replace"))
    return result.stdout.decode()


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "mbaa-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "trace", "Cargo.toml")],
    ):
        result = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise BenchError(f"{' '.join(argv)} failed ({result.returncode})")
    release = os.path.join(target, "release")
    return os.path.join(release, "mbaa"), os.path.join(release, "perfbench-trace")


# ---------------------------------------------------------------------------
# One repetition of a workload through the CLI
# ---------------------------------------------------------------------------

def doc_name(path):
    return os.path.basename(path)[: -len(".scenario.json")]


def half_chunks(doc_path):
    with open(doc_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    points = len(doc["sweep"]["churn"]["flip_rates"])
    chunks = -(-points * doc["seeds"]["count"] // CHUNK_SIZE)
    return chunks // 2


def artifacts_of(kind, docs):
    if kind == "checkpoint":
        return ["merged.report.json"]
    names = []
    for path in docs:
        name = doc_name(path)
        names.append(f"{name}.report.json")
        if kind == "events":
            names += [f"{name}.metrics.json", f"{name}.events.jsonl"]
    return names


def cli_repetition(kind, docs, rep_dir, mbaa, workers):
    """Runs the workload's CLI commands once; returns the commands."""
    os.makedirs(rep_dir)
    commands = []
    w = str(workers)
    if kind == "checkpoint":
        ck = os.path.join(rep_dir, "checkpoint")
        doc = docs[0]
        commands.append(spawn([mbaa, "sweep", doc, "--checkpoint", ck,
                               "--chunk-size", str(CHUNK_SIZE),
                               "--chunks", f"0..{half_chunks(doc)}", "--workers", w],
                              timed="stdout", stderr_path=os.path.join(rep_dir, "sweep.err")))
        commands.append(spawn([mbaa, "resume", ck, "--workers", w], timed="stdout",
                              stderr_path=os.path.join(rep_dir, "resume.err")))
        commands.append(spawn([mbaa, "merge", ck, "--out",
                               os.path.join(rep_dir, "merged.report.json")],
                              stderr_path=os.path.join(rep_dir, "merge.err")))
    else:
        for doc in docs:
            name = doc_name(doc)
            argv = [mbaa, "run", doc, "--workers", w, "--progress",
                    "--out", os.path.join(rep_dir, f"{name}.report.json")]
            if kind == "events":
                argv += ["--metrics-out", os.path.join(rep_dir, f"{name}.metrics.json"),
                         "--events-out", os.path.join(rep_dir, f"{name}.events.jsonl")]
            commands.append(spawn(argv, timed="stderr"))
    for command in commands:
        if command.code != 0:
            raise BenchError(f"mbaa exited {command.code}: "
                             f"{command.tail.decode(errors='replace')}")
    return commands


def digests(helper, directory, names):
    out = check_call([helper, "digest"] + [os.path.join(directory, n) for n in names],
                     "perfbench-trace digest")
    result = {}
    for line in out.splitlines():
        fingerprint, path = line.split(" ", 1)
        result[os.path.basename(path)] = fingerprint
    return result


def check_reports(kind, directory, names):
    """Counts runs and lane-rounds; every run must reach agreement with
    validity. Returns (runs, lane_rounds, failed_runs)."""
    runs = rounds = failed = 0
    for name in names:
        if not name.endswith(".report.json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            report = json.load(handle)
        for point in report["points"]:
            for run in point["runs"]:
                runs += 1
                rounds += run["rounds"]
                if not (run["reached_agreement"] and run["validity"]):
                    failed += 1
        if kind == "events":
            base = name[: -len(".report.json")]
            with open(os.path.join(directory, base + ".metrics.json"), encoding="utf-8") as handle:
                counted = json.load(handle)["counters"]["runs"]
            if counted != sum(len(p["runs"]) for p in report["points"]):
                problem(f"{base}: metrics document counts {counted} runs")
    if runs == 0:
        raise BenchError("no runs in the reports")
    return runs, rounds, failed


class Repetition:
    def __init__(self, kind, commands, runs, rounds, failed, digest):
        self.wall = commands[-1].end - commands[0].start
        self.rss_mb = max(c.rss_kb for c in commands) / 1024.0
        # A sweep point of `mbaa run` takes tens of milliseconds or more,
        # so its first interval may start at the spawn (process start-up
        # and planning are noise against it); a checkpoint chunk takes
        # well under a millisecond, so the first chunk of each process,
        # which carries the start-up, is left out.
        self.latencies_ms = []
        for c in commands:
            stamps = c.stamps if kind == "checkpoint" else [c.start] + c.stamps
            self.latencies_ms += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        self.runs = runs
        self.rounds = rounds
        self.failed = failed
        self.digest = digest


def repetition(kind, docs, rep_dir, mbaa, helper, workers, expected_merge=None):
    commands = cli_repetition(kind, docs, rep_dir, mbaa, workers)
    names = artifacts_of(kind, docs)
    runs, rounds, failed = check_reports(kind, rep_dir, names)
    digest = digests(helper, rep_dir, names)
    if expected_merge is not None and digest["merged.report.json"] != expected_merge:
        problem("merged checkpoint report differs from the uninterrupted run --out")
    return Repetition(kind, commands, runs, rounds, failed, digest)


def reference_merge(docs, directory, mbaa, helper):
    """Digest of an uninterrupted `mbaa run --out` of the checkpoint doc."""
    os.makedirs(directory)
    path = os.path.join(directory, "run.report.json")
    command = spawn([mbaa, "run", docs[0], "--out", path],
                    stderr_path=os.path.join(directory, "run.err"))
    if command.code != 0:
        raise BenchError(f"reference run exited {command.code}")
    return digests(helper, directory, ["run.report.json"])["run.report.json"]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def prepare(workload, seed, directory, mbaa):
    docs = write_docs(workload, seed, directory)
    check_call([mbaa, "validate"] + docs, "mbaa validate")
    return docs


def warm_up(workload, kind, mbaa, helper, workers):
    """Runs the workload at REFERENCE_SEED and checks every artifact digest
    against the committed ones (this also warms caches before timing)."""
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    if committed.get("reference_seed") != REFERENCE_SEED:
        raise BenchError("digests.json was recorded for another reference seed")
    docs = prepare(workload, REFERENCE_SEED, os.path.join(WORK, "ref-docs"), mbaa)
    expected_merge = None
    if kind == "checkpoint":
        expected_merge = reference_merge(docs, os.path.join(WORK, "ref-run"), mbaa, helper)
    rep = repetition(kind, docs, os.path.join(WORK, "ref-rep"), mbaa, helper, workers,
                     expected_merge)
    shutil.rmtree(os.path.join(WORK, "ref-rep"))
    want = committed["workloads"].get(workload)
    if rep.digest != want:
        log(f"reference digests: {json.dumps(rep.digest, sort_keys=True)}")
        problem(f"artifact digests at seed {REFERENCE_SEED} differ from digests.json")
    if rep.failed:
        problem(f"{rep.failed} reference run(s) missed agreement or validity")


def percentile(samples, q):
    if len(samples) < 2:
        raise BenchError("too few latency samples")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(workload, kind, docs, args, mbaa, helper, workers):
    expected_merge = None
    if kind == "checkpoint":
        expected_merge = reference_merge(docs, os.path.join(WORK, "run"), mbaa, helper)
    setup_argv = [helper, "setup", "sweep" if kind == "checkpoint" else "run",
                  str(CHUNK_SIZE), os.path.join(WORK, "setup")] + docs
    setups, setup_reps = [], 0
    reps = []
    timed = 0.0
    while len(reps) < MIN_REPS or timed < args.seconds:
        # Set-up is single-threaded and short, so it is timed in bursts
        # between repetitions, one burst pinned to each CPU in turn: on a
        # shared host the CPUs' speeds differ and drift, and the median
        # over the whole run and every CPU is steadier than any one burst.
        for cpu in sorted(os.sched_getaffinity(0)):
            setup = json.loads(check_call(setup_argv, "perfbench-trace setup", cpu)
                               .splitlines()[-1])
            setups.append(setup["setup_s"])
            setup_reps += setup["reps"]
        started = time.perf_counter()
        rep_dir = os.path.join(WORK, f"rep-{len(reps)}")
        rep = repetition(kind, docs, rep_dir, mbaa, helper, workers, expected_merge)
        shutil.rmtree(rep_dir)
        if reps and rep.digest != reps[0].digest:
            problem("artifacts differ between repetitions")
        reps.append(rep)
        timed += time.perf_counter() - started
    latencies = [x for rep in reps for x in rep.latencies_ms]
    metrics = {
        "runs_per_s": statistics.median(r.runs / r.wall for r in reps),
        "lane_rounds_per_s": statistics.median(r.rounds / r.wall for r in reps),
        "setup_s": statistics.median(setups),
        "chunk_ms.p50": percentile(latencies, 50),
        "chunk_ms.p90": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }
    log(f"{workload}: {len(reps)} repetition(s) at --workers {workers}, "
        f"{reps[0].runs} runs each; walls "
        + ", ".join(f"{r.wall:.3f}s" for r in reps))
    log(f"  setup: median of {len(setups)} medians over {setup_reps} set-ups; "
        f"chunk latency: "
        f"{len(latencies)} samples")
    attempted = sum(r.runs for r in reps)
    failed = sum(r.failed for r in reps)
    return metrics, declared_units("end_to_end"), attempted, failed


def trace(workload, kind, docs, args, mbaa, helper, workers):
    rep = repetition(kind, docs, os.path.join(WORK, "cli"), mbaa, helper, workers)
    half = half_chunks(docs[0]) if kind == "checkpoint" else 0
    out = check_call([helper, "trace", kind, str(CHUNK_SIZE), str(half), str(workers),
                      str(args.seconds), os.path.join(WORK, "trace")] + docs,
                     "perfbench-trace trace")
    raw = json.loads(out.strip().splitlines()[-1])
    names = artifacts_of(kind, docs)
    traced = digests(helper, os.path.join(WORK, "trace", "traced"), names)
    if traced != rep.digest:
        problem("traced replay artifacts differ from the CLI's")
    return raw, declared_units("per_layer"), rep.runs, rep.failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        log("error: run from the root of an mbaa checkout (crates/cli not found)")
        return 2
    # A terminated benchmark still stops its child and deletes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    kind = WORKLOADS[args.workload][0]
    workers = len(os.sched_getaffinity(0))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        mbaa, helper = build()
        warm_up(args.workload, kind, mbaa, helper, workers)
        docs = prepare(args.workload, args.seed, os.path.join(WORK, "docs"), mbaa)
        step = trace if args.trace else measure
        values, units, attempted, failed = step(args.workload, kind, docs, args,
                                                mbaa, helper, workers)
    except BenchError as error:
        log(f"error: {error}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        log(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    if PROBLEMS:
        failed = attempted
    log(f"  {'failed_run_share':<30} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

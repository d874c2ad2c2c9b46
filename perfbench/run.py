#!/usr/bin/env python3
"""Run one benchmark workload of the sdft analyzer and print its metrics.

    python3 perfbench/run.py --workload x1_cut16 --seed 1 --seconds 45 --trace 0

Run it from the repository root. It builds the `perfbench` worker
(`cargo build --release` into `$CARGO_TARGET_DIR`, default
`.bench_build`), makes the seeded fixture and its reference answer
outside any timing, then either samples the timed analysis (`--trace 0`:
end-to-end metrics) or runs the traced replay (`--trace 1`: per-layer
metrics). The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. Progress and one
record per sample go to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

# Stop taking samples once a run has lasted this long, so it ends well
# within three minutes even on a slow host.
RUN_BUDGET_S = 120.0

# Load times drift with the host far more than they vary within one
# process, so set-up time is the median over short load-only processes
# spread through the run (this many before sampling, then one after each
# sample) of each process's median load.
LOADS_BEFORE = 2


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def log(record):
    print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def worker(exe, *args):
    """Run one worker command and return its JSON answer."""
    out = subprocess.run([exe, *args], stdout=subprocess.PIPE,
                         text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"perfbench {args[0]} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def produce(path, make):
    """Create `path` with `make(tmp)` unless it exists; atomic rename."""
    if not os.path.exists(path):
        tmp = path + ".tmp"
        answer = make(tmp)
        os.replace(tmp, path)
        return answer
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="fixture seed (default: the calibrated generator seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for required in ("BENCHMARK.json", "Cargo.toml", "crates/core/Cargo.toml",
                     "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, required)):
            die(f"run from the repository root: {required} is missing")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seed = "default" if args.seed is None else str(args.seed % 2**64)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        die("building the worker failed")
    exe = os.path.join(target, "release", "perfbench")

    # The generator-named model and its reference answer depend on the
    # worker build and the workload only; a seed's fixture relabels that
    # model and keeps its node ids, so the one reference checks it.
    models = os.path.join(target, "perfbench-work", file_digest(exe), args.workload)
    work = os.path.join(models, f"seed-{seed}")
    os.makedirs(work, exist_ok=True)
    base = os.path.join(models, "base.sdft")
    reference = os.path.join(models, "reference.txt")
    fixture = os.path.join(work, "fixture.sdft")
    made = produce(base, lambda tmp: worker(exe, "materialize", args.workload, tmp))
    if made:
        log({"base": base, **made})
    made = produce(reference, lambda tmp: worker(exe, "reference", args.workload, base, tmp))
    if made:
        log({"reference_s": made["seconds"]})
    made = produce(fixture, lambda tmp: worker(exe, "relabel", args.workload, seed, base, tmp))
    if made:
        log({"fixture": fixture, **made})

    context = {"workload": args.workload, "seed": seed, "threads": 2,
               "nproc": os.cpu_count(), "git_rev": git_rev(root)}
    if args.trace:
        report = trace_run(exe, args.workload, fixture, reference, spec, work, context)
    else:
        report = timed_run(exe, args.workload, fixture, reference, spec, args.seconds,
                           context)
    print(json.dumps(report))


def load_median(exe, workload, fixture):
    return statistics.median(worker(exe, "load", workload, fixture)["loads_s"])


def timed_run(exe, workload, fixture, reference, spec, seconds, context):
    """Fresh processes that each load the fixture and analyze it once,
    until `seconds` of sampling have passed, with load-only processes
    before the first and after each of them."""
    began = time.monotonic()
    setup = [load_median(exe, workload, fixture) for _ in range(LOADS_BEFORE)]
    samples, crashed, sampled = [], 0, 0.0
    while True:
        start = time.monotonic()
        try:
            sample = worker(exe, "sample", workload, fixture, reference)
        except RuntimeError as error:
            crashed = 1
            log({**context, "error": str(error)})
            break
        sampled += time.monotonic() - start
        samples.append(sample)
        log({**context, "sample": len(samples), **sample})
        setup.append(load_median(exe, workload, fixture))
        if sampled >= seconds or time.monotonic() - began > RUN_BUDGET_S:
            break
    if not samples:
        die("no sample completed")
    values = {
        "analyze_s": statistics.median(s["analyze_s"] for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_kib"] / 1024 for s in samples),
    }
    log({**context, "setup_s_per_process": setup})
    failed = crashed + sum(not s["ok"] for s in samples)
    return result(spec["end_to_end"], values, len(samples) + crashed, failed)


def trace_run(exe, workload, fixture, reference, spec, work, context):
    """One worker process: the untraced timed analysis with its engine
    counters, the untraced serial analysis, and the traced replay."""
    answer = worker(exe, "trace", workload, fixture, reference)
    with open(os.path.join(work, f"trace-{int(time.time())}.txt"), "w",
              encoding="utf-8") as f:
        f.write(answer["trace"])
    log({**context, "traced": True, "ok": answer["ok"], "error": answer["error"]})
    return result(spec["per_layer"], answer["metrics"], answer["checked"], answer["failed"])


def result(declared, values, attempted, failed):
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        die(f"the worker did not report {', '.join(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


if __name__ == "__main__":
    try:
        main()
    except RuntimeError as error:
        die(str(error))

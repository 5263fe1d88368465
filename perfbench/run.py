"""Benchmark of the descent package: two workloads, end-to-end metrics
and, with ``--trace 1``, per-layer metrics from an outside-in tracer.

    python3 perfbench/run.py --workload warm --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. The workloads are described in ``workloads.py`` and the metrics
in ``BENCHMARK.json``. The workload runs in a child process (``worker.py``);
``setup_s`` counts from just before that process starts to the start of
its timed pass: a fresh interpreter, ``import descent`` and priming a
private structure-tensor cache.

Times are reported in reference-speed seconds. The cores are shared, and
the speed of the host drifts by up to 1.6x within minutes, so the child
samples a fixed reference task every 0.1 s (``SpeedProbe``) and scales
each measured time by the host speed seen while it was measured. The raw
wall times sit next to them in the run record.

Everything the benchmark writes stays under ``.perfbench/`` in the
checkout: the private cache, removed at exit, and one run record per
invocation in ``.perfbench/records`` (git sha when the checkout has one,
Python and numpy versions, cores, load average at start and end, seed,
and the per-pass and per-item times behind every median).

The last stdout line is the result object; the exit status is 0 only
when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175


def git_sha(root):
    """HEAD of the checkout when it is a git work tree, read from .git
    directly so nothing outside the checkout is consulted."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, cache_dir, deadline, layer_names):
    """Start the workload process on an empty private cache and return its
    result object; set-up time counts from just before the start."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    env = dict(os.environ, DESCENT_CACHE_DIR=cache_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", os.path.join(ROOT, "src"),
           "--layer-metrics", ",".join(layer_names),
           "--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with status %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "descent", "__init__.py")):
        print("error: no package source at src/descent; run from a source "
              "checkout", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    work = os.path.join(ROOT, ".perfbench")
    tag = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                    os.getpid())
    layer_names = [m["name"] for m in spec["per_layer"]] if args.trace else []
    cache_dir = os.path.join(work, "cache-" + tag)
    try:
        out = run_worker(args, cache_dir, started + DEADLINE_S, layer_names)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    unreached = out.get("unreached_spans", [])
    correct = out["failed"] == 0 and not unreached
    if args.trace:
        metrics = out["per_layer"]
        wanted = spec["per_layer"]
    else:
        metrics = dict(out["end_to_end"], setup_s=out["setup_s"])
        wanted = spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }

    record = dict(out, seed=args.seed,
                  workload=args.workload, trace=args.trace,
                  seconds=args.seconds, git_sha=git_sha(ROOT),
                  python=platform.python_version(),
                  nproc=os.cpu_count(),
                  cpu_affinity=len(os.sched_getaffinity(0)),
                  loadavg_start=load_start, loadavg_end=os.getloadavg(),
                  fail_frac=out["failed"] / out["attempted"],
                  result=result)
    records = os.path.join(work, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, "%s-%s.json" % (
        time.strftime("%Y%m%dT%H%M%S"), tag))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    if unreached:
        print("error: traced spans never reached: %s" % ", ".join(unreached),
              file=sys.stderr)
    failures = [(i, item, msg) for i, f in enumerate(out["failures"])
                for item, msg in f.items()]
    for i, item, msg in failures[:10]:
        print("failed: pass %d item %s: %s" % (i, item, msg), file=sys.stderr)
    print("run record: %s" % os.path.relpath(path, ROOT), file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set-up, the timed passes of one workload, the
output checks and, with --trace 1, a second series of passes under the
tracer.

Started by ``run.py`` with ``DESCENT_CACHE_DIR`` pointing at an empty
private directory. Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


class SpeedProbe:
    """Samples the speed of the host while the workload runs.

    The cores are shared with other tenants, and the same pass can take
    1.5x longer a few minutes later. Every ``INTERVAL`` seconds a timer
    signal runs a fixed pure-Python reference task in this process and
    records how long it took. ``factor`` turns a time measured over an
    interval into reference-speed seconds: the time-average of
    ``REFERENCE_S / sample`` over the samples taken in that interval.
    """

    INTERVAL = 0.1
    REFERENCE_S = 0.001

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - start)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self):
        return len(self.samples)

    def factor(self, since, until=None):
        taken = self.samples[since:until]
        if not taken:
            return 1.0
        return statistics.fmean(self.REFERENCE_S / t for t in taken)


def reference_task():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
    table = {}
    for i in range(600):
        table[(i * 7919).to_bytes(4, "little")] = i
    return acc, len(table)


class CacheWatch:
    """Counts structure-tensor cache hits and misses, so a warm pass can
    fail on a miss and a cold pass on a hit without the tracer."""

    def __init__(self, cache_module):
        self.hits = 0
        self.misses = 0
        original = cache_module.load_tensor

        def load_tensor(system):
            tensor = original(system)
            if tensor is None:
                self.misses += 1
            else:
                self.hits += 1
            return tensor

        cache_module.load_tensor = load_tensor


def prime(workload):
    """Write the workload's tensors into the private cache; return the
    generator labels of each primed type for input generation."""
    import descent

    labels = {}
    for label in workload.prime:
        system = descent.build_system(type=label)
        system.structure_tensor()
        labels[label] = list(system.labels)
    return labels


def run_pass(workload, items, watch, probe):
    """Time each item; an item that raises or breaks the cache state of
    its workload is a failure, never an abort. The speed probe's sample
    count before and after each item is kept with its latency."""
    if not workload.warm:
        cache_dir = os.environ["DESCENT_CACHE_DIR"]
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.makedirs(cache_dir)
    clock = time.perf_counter
    latencies, marks, results, failures = [], [], [], {}
    first = probe.mark()
    for i, item in enumerate(items):
        # each item starts from a clean heap, as a fresh CLI process
        # would, so peak RSS does not depend on the seed's item order
        gc.collect()
        hits, misses = watch.hits, watch.misses
        mark = probe.mark()
        start = clock()
        try:
            output = workload.run(item)
            latencies.append(clock() - start)
            marks.append((mark, probe.mark()))
            results.append((i, item, workload.summarize(item, output)))
            del output
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            if len(latencies) == i:
                latencies.append(clock() - start)
                marks.append((mark, probe.mark()))
            failures[i] = "raised %s: %s" % (type(exc).__name__, exc)
            continue
        if workload.warm and watch.misses != misses:
            failures[i] = "structure tensor missed the primed cache"
        if not workload.warm and watch.hits != hits:
            failures[i] = "structure tensor came from the cache"
    wall = sum(latencies)
    return {"wall_s": wall, "latencies": latencies, "results": results,
            "failures": failures, "ref_wall_s": wall * probe.factor(first),
            # a short item sees few samples or none: widen its window by
            # ten samples on each side, about a second
            "ref_latencies": [t * probe.factor(max(0, lo - 10), hi + 10)
                              for t, (lo, hi) in zip(latencies, marks)]}


def check_pass(workload, one_pass, seed, references):
    try:
        problems = workload.check(one_pass["results"], seed, references)
    except Exception as exc:  # noqa: BLE001 - a broken check fails all
        problems = {i: "check raised %s: %s" % (type(exc).__name__, exc)
                    for i, _, _ in one_pass["results"]}
    failed = dict(problems)
    failed.update(one_pass["failures"])
    return failed


def timed_passes(workload, items, watch, seconds, probe):
    """Whole passes: the first always, each further one only while it is
    expected to end within ``seconds`` of the start."""
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start
                         + passes[-1]["wall_s"] <= seconds):
        passes.append(run_pass(workload, items, watch, probe))
    return passes


def segment_times(segments, latencies):
    out = {}
    for seg, t in zip(segments, latencies):
        out[seg] = out.get(seg, 0.0) + t
    return out


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the process was started")
    parser.add_argument("--src", required=True)
    parser.add_argument("--layer-metrics", default="",
                        help="comma-separated per-layer metric names")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    sys.path.insert(0, args.src)
    import numpy
    import descent.cache
    from workloads import RANK7_BUILT, REQUEST_SEGMENT, WORKLOADS

    workload = WORKLOADS[args.workload]
    labels = prime(workload)
    setup_raw_s = time.monotonic() - args.launched
    setup_mark = probe.mark()

    with open(REFERENCES) as fh:
        references = json.load(fh)
    watch = CacheWatch(descent.cache)
    items = workload.inputs(args.seed, labels)
    passes = timed_passes(workload, items, watch, args.seconds, probe)
    rss = peak_rss_mb()
    traced = []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(workload, items, watch, args.seconds,
                                  probe)
        finally:
            tracer.uninstall()

    probe.stop()
    # a set-up shorter than a second sees too few samples to give a
    # steady speed: take at least the first ten
    setup_speed = probe.factor(0, max(setup_mark, 10))
    check_start = time.monotonic()
    # in a traced run the untraced passes are only the timing reference
    # for the tracing overhead; the traced passes' outputs are checked
    failures = [check_pass(workload, p, args.seed, references)
                for p in (traced or passes)]
    check_s = time.monotonic() - check_start
    segments = [workload.segment(item) for item in items]
    latencies = [t for p in passes
                 for seg, t in zip(segments, p["ref_latencies"])
                 if seg == REQUEST_SEGMENT]
    if not latencies:
        latencies = [p["ref_wall_s"] for p in passes]
    out = {
        "setup_s": setup_raw_s * setup_speed,
        "setup_raw_s": setup_raw_s,
        "setup_speed": setup_speed,
        "pass_ref_wall_s": [p["ref_wall_s"] for p in passes],
        "speed_samples_s": probe.samples,
        "attempted": len(items) * len(failures),
        "failed": sum(len(f) for f in failures),
        "failures": [{str(i): msg for i, msg in sorted(f.items())}
                     for f in failures],
        "check_s": check_s,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "segment_s": [segment_times(segments, p["latencies"])
                      for p in passes],
        "items": [str(item) for item in items],
        "latencies_s": [p["latencies"] for p in passes],
        "ref_latencies_s": [p["ref_latencies"] for p in passes],
        "numpy": numpy.__version__,
        "end_to_end": {
            "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
            "peak_rss_mb": rss,
            "request_p50_s": statistics.median(latencies),
            "request_p90_s": p90(latencies),
        },
    }
    counts = {}
    if args.workload == "build-cold":
        estimates = workload.rank7_estimates_mb()
        largest = max(estimates[label] for label in RANK7_BUILT)
        counts = {"cli.rank7_estimate_mb": largest,
                  "cli.rank7_rss_over_estimate": rss / largest}
        out["rank7_estimate_mb"] = estimates
        out.update(counts)
    if tracer is not None:
        counts["tracing.overhead_s"] = (
            statistics.median(p["ref_wall_s"] for p in traced)
            - out["end_to_end"]["wall_s"])
        out["missing_targets"] = tracer.missing
        out["unreached_spans"] = [
            name for name in workload.required_spans
            if tracer.stats[name].calls == 0]
        speed = statistics.median(p["ref_wall_s"] / p["wall_s"]
                                  for p in traced)
        out["per_layer"] = layer_metrics(tracer, len(traced), speed, counts,
                                         args.layer_metrics.split(","))
    print(json.dumps(out))
    return 0


def layer_metrics(tracer, passes, speed, counts, names):
    """Every listed per-layer metric, per traced pass and with span times
    in reference-speed seconds; 0 when unreached."""
    values = {}
    for name in names:
        if name in counts:
            values[name] = counts[name]
        elif name.endswith("_ratio"):
            values[name] = tracer.value(name)
        elif name.endswith("_s"):
            values[name] = tracer.value(name) * speed / passes
        else:
            values[name] = tracer.value(name) / passes
        if float(values[name]).is_integer():
            values[name] = int(values[name])
    return values


if __name__ == "__main__":
    sys.exit(main())

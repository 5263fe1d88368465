"""Regenerate ``references.json``: the outputs of one pass of every
workload at the default seed.

    python3 perfbench/make_references.py

Run only when a change to the package is meant to change outputs; the
table rows are also tied to the golden rows of ``tests/test_table.py``
by ``test_perfbench.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    cache_dir = os.path.join(ROOT, ".perfbench", "cache-references")
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.makedirs(cache_dir)
    os.environ["DESCENT_CACHE_DIR"] = cache_dir
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import descent.cache
    import worker
    from workloads import DEFAULT_SEED, WORKLOADS

    watch = worker.CacheWatch(descent.cache)
    probe = worker.SpeedProbe()
    refs = {}
    try:
        for name in ("build-cold", "warm"):
            workload = WORKLOADS[name]
            labels = worker.prime(workload)
            items = workload.inputs(DEFAULT_SEED, labels)
            one = worker.run_pass(workload, items, watch, probe)
            if one["failures"]:
                raise SystemExit("%s failed: %s" % (name, one["failures"]))
            for _, item, out in one["results"]:
                segment = workload.segment(item)
                inner = item if segment == "build-cold" else item[1]
                if segment == "build-cold":
                    refs.setdefault(segment, {})[inner] = out["digest"]
                elif segment == "table":
                    refs.setdefault(segment, {})[inner] = out
                elif segment == "verify":
                    key = "%s:%s" % inner[:2]
                    refs.setdefault(segment, {})[key] = out["checks"]
                else:
                    refs.setdefault(segment, []).append(list(inner) + [out])
    finally:
        probe.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

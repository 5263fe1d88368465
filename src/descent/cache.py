"""Persistent structure-constant cache: one JSON file per type label.

An entry holds the schema version, the type label, the rank, the group
order, the nonzero structure constants as [I, J, K, value] triples, and a
truncated sha256 checksum over the rest. Everything else a warm system
needs, the shapes included, is derived from the tensor. A version
mismatch or a failed checksum never aborts a computation; the caller just
recomputes (with a warning on corruption) and overwrites the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings

import numpy as np

from .errors import CorruptCache

SCHEMA_VERSION = 1


def cache_dir():
    d = os.environ.get("DESCENT_CACHE_DIR")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "descent")
    return d


def path_for(type_label):
    safe = type_label.replace("(", "_").replace(")", "")
    return os.path.join(cache_dir(), safe + ".json")


def _checksum(payload):
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def make_entry(system, tensor):
    ii, jj, kk = np.nonzero(tensor)
    triples = np.column_stack((ii, jj, kk, tensor[ii, jj, kk])).tolist()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "type_label": system.type_label,
        "rank": system.rank,
        "group_order": system.order,
        "triples": triples,
    }
    payload["checksum"] = _checksum(
        {k: v for k, v in payload.items() if k != "checksum"})
    return payload


def cache_store(entry):
    """Atomically write one entry (write to temp file, then rename)."""
    d = cache_dir()
    os.makedirs(d, exist_ok=True)
    target = path_for(entry["type_label"])
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # dumps runs the C encoder; dump streams through the Python one
            fh.write(json.dumps(entry))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def cache_load(type_label):
    """Load and validate an entry; raises CorruptCache on a bad file.

    Returns None when no file exists or the schema version is stale.
    """
    target = path_for(type_label)
    if not os.path.exists(target):
        return None
    try:
        with open(target, "r") as fh:
            entry = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CorruptCache("unreadable cache file %s: %s" % (target, exc))
    if not isinstance(entry, dict):
        raise CorruptCache("cache file %s is not an object" % target)
    if entry.get("schema_version") != SCHEMA_VERSION:
        return None
    expected = entry.get("checksum")
    actual = _checksum({k: v for k, v in entry.items() if k != "checksum"})
    if expected != actual:
        raise CorruptCache("checksum mismatch in %s" % target)
    return entry


def load_tensor(system):
    """Dense structure tensor from cache, or None to force a recompute.

    The triples must be distinct in-range index triples with nonzero
    integer values, as :func:`make_entry` writes them.
    """
    try:
        entry = cache_load(system.type_label)
    except CorruptCache as exc:
        warnings.warn("ignoring corrupt cache entry: %s" % exc)
        return None
    if entry is None:
        return None
    if (entry.get("rank") != system.rank
            or entry.get("group_order") != system.order):
        warnings.warn("cache entry for %s does not match the built system"
                      % system.type_label)
        return None
    full = 1 << system.rank
    try:
        arr = np.asarray(entry["triples"])
    except (KeyError, ValueError) as exc:
        return _malformed(system, exc)
    if arr.dtype.kind != "i" or arr.ndim != 2 or arr.shape[1] != 4:
        return _malformed(system, "expected integer [I, J, K, value] rows")
    idx = arr[:, :3]
    if ((idx < 0) | (idx >= full)).any():
        return _malformed(system, "subset index outside 0..%d" % (full - 1))
    T = np.zeros((full, full, full), dtype=np.int64)
    T[idx[:, 0], idx[:, 1], idx[:, 2]] = arr[:, 3]
    # every stored triple is a distinct nonzero entry
    if np.count_nonzero(T) != len(arr):
        return _malformed(system, "repeated subset triple or zero value")
    return T


def _malformed(system, problem):
    warnings.warn("malformed cache triples for %s: %s"
                  % (system.type_label, problem))
    return None


def store_tensor(system, tensor):
    try:
        return cache_store(make_entry(system, tensor))
    except OSError as exc:
        warnings.warn("could not write cache: %s" % exc)
        return None

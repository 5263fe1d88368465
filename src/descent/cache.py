"""Persistent structure-constant cache: one binary file per type label.

A file ``<label>.tensor`` holds three parts back to back:

- the header, one line of canonical JSON (sorted keys, then a newline):
  the schema version, the type label, the rank, the group order, a digest
  of the Coxeter matrix, the generator labels and the schema version, and
  the ``dtype`` string and ``shape`` of the support;
- the raw bytes of the support: the (2^n, 3^n) matrix T[:, J, K] over
  the pairs (J, K) of :func:`coxeter.support_pairs`, K inside J, in their
  order; by Solomon's Mackey formula it holds every nonzero structure
  constant. It is int32 when every value fits;
- the 32-byte sha256 of everything before it.

Equal content gives equal bytes. A load checks, in this order: the
trailing sha256 matches; the header is a JSON object and byte for byte
its canonical dump; the schema version and the matrix digest are current
(otherwise the entry is stale); the bytes fill the declared dtype and
shape; the label, rank and order match the system; the support is an
integer array of shape (2^n, 3^n); and it passes
:func:`coxeter.check_support`, before the dense tensor is scattered from
it. Everything a warm system needs, the shapes included, is derived from
the tensor, so a load enumerates nothing. No failure aborts a computation:
the caller recomputes (with a warning unless the entry is merely missing
or stale) and overwrites the file. Files of earlier schemas
(``<label>.json``, ``<label>.npz``) are never read and can be deleted.

Events go to the ``descent.cache`` logger: hits, misses and stale entries
at debug level, corrupt or malformed entries at warning level, the latter
also through ``warnings.warn``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import warnings
from functools import lru_cache

import numpy as np

from . import cartan
from .coxeter import check_support, dense_tensor
from .errors import CorruptCache

SCHEMA_VERSION = 4

_log = logging.getLogger(__name__)
# warnings already reach the user; keep logging's last-resort handler
# from printing them a second time
_log.addHandler(logging.NullHandler())


def cache_dir():
    d = os.environ.get("DESCENT_CACHE_DIR")
    if not d:
        d = os.path.join(os.path.expanduser("~"), ".cache", "descent")
    return d


def path_for(type_label):
    safe = type_label.replace("(", "_").replace(")", "")
    return os.path.join(cache_dir(), safe + ".tensor")


def matrix_digest(matrix, labels):
    blob = json.dumps([matrix, list(labels), SCHEMA_VERSION])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def _label_system(type_label):
    """(Coxeter matrix, digest) that ``build_system`` gives the label."""
    labels, matrix = cartan.matrix_for_components(
        cartan.parse_label(type_label))
    return matrix, matrix_digest(matrix, labels)


def make_entry(system, support):
    small = np.iinfo(np.int32)
    if small.min <= support.min() and support.max() <= small.max:
        support = support.astype(np.int32)
    return {
        "schema_version": SCHEMA_VERSION,
        "type_label": system.type_label,
        "rank": system.rank,
        "group_order": system.order,
        "matrix_digest": matrix_digest(system.matrix, system.labels),
        "dtype": support.dtype.str,
        "shape": list(support.shape),
        "support": support,
    }


def encode(entry):
    """The bytes of the file holding `entry`."""
    header = {k: v for k, v in entry.items() if k != "support"}
    body = (json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
            + entry["support"].tobytes())
    return body + hashlib.sha256(body).digest()


def cache_store(entry):
    """Atomically write one entry (write to temp file, then rename)."""
    d = cache_dir()
    os.makedirs(d, exist_ok=True)
    target = path_for(entry["type_label"])
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(encode(entry))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def cache_load(type_label):
    """Load and verify an entry; raises CorruptCache on a damaged or
    unreadable file.

    Returns None when no file exists or the entry is stale: another
    schema version, or a matrix digest other than the label's.
    """
    target = path_for(type_label)
    try:
        with open(target, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        _log.debug("miss %s", target)
        return None
    except OSError as exc:
        raise CorruptCache("unreadable cache file %s: %s" % (target, exc))
    # a file shorter than the 32-byte digest never matches it
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCache("checksum mismatch in %s" % target)
    line, _, support = body.partition(b"\n")
    try:
        entry = json.loads(line)
    except ValueError as exc:
        raise CorruptCache("unreadable header in %s: %s" % (target, exc))
    if not isinstance(entry, dict):
        raise CorruptCache("header of %s is not an object" % target)
    if json.dumps(entry, sort_keys=True).encode("utf-8") != line:
        raise CorruptCache("header of %s is not canonical JSON" % target)
    if (entry.get("schema_version") != SCHEMA_VERSION
            or entry.get("matrix_digest") != _label_system(type_label)[1]):
        _log.debug("stale %s", target)
        return None
    try:
        entry["support"] = np.frombuffer(
            support, entry["dtype"]).reshape(entry["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCache("unreadable support in %s: %s" % (target, exc))
    return entry


def load_tensor(system):
    """Dense structure tensor from cache, or None to force a recompute.

    Reads only ``type_label``, ``rank`` and ``order`` of `system`; the
    matrix the support is checked against is the label's.
    """
    label = system.type_label
    try:
        entry = cache_load(label)
    except CorruptCache as exc:
        return _reject("ignoring corrupt cache entry: %s" % exc)
    if entry is None:
        return None
    if (entry.get("type_label") != label or entry.get("rank") != system.rank
            or entry.get("group_order") != system.order):
        return _reject("cache entry for %s does not match the built system"
                       % label)
    shape = (1 << system.rank, 3 ** system.rank)
    support = entry["support"]
    if support.dtype.kind != "i" or support.shape != shape:
        return _reject("malformed cache support for %s: expected an "
                       "integer array of shape %s" % (label, shape))
    try:
        check_support(support, _label_system(label)[0], system.order, label)
    except AssertionError as exc:
        return _reject("cache entry for %s fails the tensor invariants: %s"
                       % (label, exc))
    _log.debug("hit %s", path_for(label))
    return dense_tensor(system.rank, support)


def _reject(message):
    warnings.warn(message)
    _log.warning("%s", message)
    return None


def store_tensor(system, support):
    try:
        return cache_store(make_entry(system, support))
    except OSError as exc:
        return _reject("could not write cache: %s" % exc)

"""Persistent structure-constant cache: one binary file per type label.

A file ``<label>.npz`` is an uncompressed numpy archive of two members:

- ``support``: the (2^n, 3^n) support matrix T[:, J, K] over the pairs
  (J, K) of :func:`coxeter.support_pairs`, K inside J, in their order;
  by Solomon's Mackey formula it holds every nonzero structure constant.
  It is int32 when every value fits;
- ``header``: UTF-8 JSON holding the schema version, the type label, the
  rank, the group order, the sha256 of the raw support bytes, and a
  digest of the Coxeter matrix, the generator labels and the schema
  version.

The zip metadata is fixed, so equal content gives equal bytes. A load
checks, in this order: the file parses and is byte for byte the archive
its content encodes; the schema version and the matrix digest are
current (otherwise the entry is stale); the sha256 matches; the label,
rank and order match the system; the support is an integer array of
shape (2^n, 3^n); and the tensor has the unit rows, the support and the
Mackey counts of :func:`coxeter.check_tensor`. Everything a warm system
needs, the shapes included, is derived from the tensor, so a load
enumerates nothing. No failure aborts a computation: the caller
recomputes (with a warning unless the entry is merely missing or stale)
and overwrites the file. Files of schema 1 (``<label>.json``) are never
read and can be deleted; files of schema 2 are stale.

Events go to the ``descent.cache`` logger: hits, misses and stale entries
at debug level, corrupt or malformed entries at warning level, the latter
also through ``warnings.warn``.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import tempfile
import warnings
import zipfile

import numpy as np

from . import cartan
from .coxeter import check_tensor, support_pairs
from .errors import CorruptCache

SCHEMA_VERSION = 3

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
    return os.path.join(cache_dir(), safe + ".npz")


def matrix_digest(matrix, labels):
    blob = json.dumps([matrix, list(labels), SCHEMA_VERSION])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _label_system(type_label):
    """(generator labels, Coxeter matrix) that ``build_system`` gives the
    label."""
    return cartan.matrix_for_components(cartan.parse_label(type_label))


def _sha256(support):
    return hashlib.sha256(support.tobytes()).hexdigest()


def make_entry(system, tensor):
    J, K, _starts = support_pairs(system.rank)
    support = np.ascontiguousarray(tensor[:, J, K])
    small = np.iinfo(np.int32)
    if small.min <= support.min() and support.max() <= small.max:
        support = support.astype(np.int32)
    return {
        "schema_version": SCHEMA_VERSION,
        "type_label": system.type_label,
        "rank": system.rank,
        "group_order": system.order,
        "sha256": _sha256(support),
        "matrix_digest": matrix_digest(system.matrix, system.labels),
        "support": support,
    }


def encode(entry):
    """The bytes of the file holding `entry`."""
    header = {k: v for k, v in entry.items() if k != "support"}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, arr in (("header", np.frombuffer(blob, dtype=np.uint8)),
                          ("support", entry["support"])):
            member = io.BytesIO()
            np.lib.format.write_array(member, arr, allow_pickle=False)
            # ZipInfo stamps 1980-01-01; fix the host field too, so the
            # bytes do not depend on the platform
            info = zipfile.ZipInfo(name + ".npy")
            info.create_system = 3
            zf.writestr(info, member.getvalue())
    return buf.getvalue()


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
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            entry = json.loads(npz["header"].tobytes())
            if not isinstance(entry, dict):
                raise CorruptCache("header of %s is not an object" % target)
            # a file of another schema holds other members
            current = entry.get("schema_version") == SCHEMA_VERSION
            if current:
                entry["support"] = npz["support"]
        canonical = not current or encode(entry) == data
    # a damaged archive fails in zipfile, in numpy's reader or in json;
    # zipfile refuses a flipped compression method or version with
    # NotImplementedError and a flipped encryption flag with RuntimeError
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError,
            NotImplementedError, RuntimeError) as exc:
        raise CorruptCache("unreadable cache file %s: %s" % (target, exc))
    if not canonical:
        raise CorruptCache("%s is not the archive its content encodes"
                           % target)
    labels, matrix = _label_system(type_label)
    if not current or (entry.get("matrix_digest")
                       != matrix_digest(matrix, labels)):
        _log.debug("stale %s", target)
        return None
    if entry.get("sha256") != _sha256(entry["support"]):
        raise CorruptCache("checksum mismatch in %s" % target)
    return entry


def load_tensor(system):
    """Dense structure tensor from cache, or None to force a recompute.

    Reads only ``type_label``, ``rank`` and ``order`` of `system`; the
    matrix the tensor is checked against is the label's.
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
    full = 1 << system.rank
    J, K, _starts = support_pairs(system.rank)
    support = entry["support"]
    if support.dtype.kind != "i" or support.shape != (full, len(J)):
        return _reject("malformed cache support for %s: expected an "
                       "integer array of shape (%d, %d)"
                       % (label, full, len(J)))
    T = np.zeros((full, full, full), dtype=np.int64)
    T[:, J, K] = support
    try:
        check_tensor(T, _label_system(label)[1], system.order, label)
    except AssertionError as exc:
        return _reject("cache entry for %s fails the tensor invariants: %s"
                       % (label, exc))
    _log.debug("hit %s", path_for(label))
    return T


def _reject(message):
    warnings.warn(message)
    _log.warning("%s", message)
    return None


def store_tensor(system, tensor):
    try:
        return cache_store(make_entry(system, tensor))
    except OSError as exc:
        return _reject("could not write cache: %s" % exc)

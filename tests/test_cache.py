"""Structure-constant cache: round trips, corruption handling, and the
environment override for the directory."""

import hashlib
import json
import logging
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import descent.cache as ca
from descent import cartan, morphisms, verify
from descent.coxeter import (CoxeterSystem, build_system, expand_masks,
                             support_pairs)
from descent.errors import CorruptCache


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
    return tmp_path


def fresh_system(label):
    # bypass the shared session factory: cache tests need systems whose
    # tensors were computed rather than loaded
    return build_system(type=label, cache=False)


def read_entry(path):
    """The header and a writable copy of the support matrix of a cache
    file, unchecked."""
    line, _, payload = Path(path).read_bytes()[:-32].partition(b"\n")
    entry = json.loads(line)
    entry["support"] = np.frombuffer(payload, entry["dtype"]).reshape(
        entry["shape"]).copy()
    return entry


def write_entry(path, entry):
    """Write `entry` with a dtype and shape that match its support
    matrix."""
    entry["dtype"] = entry["support"].dtype.str
    entry["shape"] = list(entry["support"].shape)
    Path(path).write_bytes(ca.encode(entry))


def write_archive(path, header, payload):
    """Write the JSON `header` over the raw bytes `payload`, with a
    matching sha256 trailer."""
    body = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def support_of(tensor):
    """The support matrix T[:, J, K] of a dense tensor over the pairs of
    ``support_pairs``, the matrix a cache entry holds."""
    J, K, _starts = support_pairs(tensor.shape[0].bit_length() - 1)
    return tensor[:, J, K]


def nonzero_triples(tensor):
    """The [I, J, K, value] rows of the nonzero entries of `tensor`, the
    member that files of schema 2 held."""
    ii, jj, kk = np.nonzero(tensor)
    return np.column_stack((ii, jj, kk, tensor[ii, jj, kk])).astype(np.int32)


class TestPaths:
    def test_env_var_wins(self, cache_env):
        assert ca.cache_dir() == str(cache_env)

    def test_env_var_read_at_call_time(self, cache_env, monkeypatch):
        first = ca.cache_dir()
        monkeypatch.setenv("DESCENT_CACHE_DIR", str(cache_env / "sub"))
        assert ca.cache_dir() == str(cache_env / "sub") != first

    def test_default_is_under_home(self, monkeypatch):
        monkeypatch.delenv("DESCENT_CACHE_DIR", raising=False)
        d = ca.cache_dir()
        assert d == os.path.join(os.path.expanduser("~"), ".cache",
                                 "descent")

    def test_parenthesized_labels_are_sanitized(self, cache_env):
        path = ca.path_for("I2(5)")
        assert os.path.basename(path) == "I2_5.tensor"
        assert os.path.dirname(path) == str(cache_env)


class TestRoundTrip:
    def test_store_then_load_tensor(self, cache_env):
        system = fresh_system("B2")
        tensor = system.structure_tensor()
        target = ca.store_tensor(system, support_of(tensor))
        assert target and os.path.exists(target)
        again = ca.load_tensor(system)
        assert np.array_equal(again, tensor)

    def test_repeated_loads_parse_the_label_once(self, cache_env,
                                                 monkeypatch):
        # the label's matrix and its digest are kept per label
        system = build_system(type="B3")
        tensor = system.structure_tensor()      # primes the file
        ca._label_system.cache_clear()
        calls = []
        for module, name in ((cartan, "parse_label"), (ca, "matrix_digest")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, f=original, n=name:
                                calls.append(n) or f(*args))
        for _ in range(3):
            assert np.array_equal(ca.load_tensor(system), tensor)
        assert calls == ["parse_label", "matrix_digest"]

    def test_atomic_write_leaves_no_temp_files(self, cache_env):
        system = fresh_system("A2")
        ca.store_tensor(system, support_of(system.structure_tensor()))
        leftovers = [f for f in os.listdir(cache_env)
                     if f.endswith(".tmp")]
        assert leftovers == []

    def test_missing_file_loads_as_none(self, cache_env):
        assert ca.cache_load("H3") is None

    def test_build_system_populates_and_reuses(self, cache_env):
        # the file appears on the first structure-constant request and
        # is read back untouched by the second build
        first = build_system(type="B2")
        t1 = first.structure_tensor()
        path = ca.path_for("B2")
        assert os.path.exists(path)
        stamp = os.path.getmtime(path)
        second = build_system(type="B2")
        t2 = second.structure_tensor()
        assert os.path.getmtime(path) == stamp
        assert np.array_equal(t1, t2)

    def test_no_cache_flag_skips_files(self, cache_env):
        system = build_system(type="A2", cache=False)
        system.structure_tensor()
        assert not os.path.exists(ca.path_for("A2"))

    def test_files_of_earlier_schemas_are_never_read(self, cache_env,
                                                     monkeypatch):
        # a schema-3 numpy archive and a schema-1 JSON file of the label:
        # neither is opened, and the flat file is written beside them
        system = fresh_system("B2")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, support_of(tensor))
        header = {k: v for k, v in entry.items()
                  if k not in ("support", "dtype", "shape")}
        header["schema_version"] = 3
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(cache_env / "B2.npz", "wb") as fh:
            np.savez(fh, header=np.frombuffer(blob, dtype=np.uint8),
                     support=entry["support"])
        (cache_env / "B2.json").write_text(
            '{"schema_version": 1, "triples": []}')
        old = {p.name: p.read_bytes() for p in cache_env.iterdir()}
        opened = []

        def recording(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ca, "open", recording, raising=False)
        warm = build_system(type="B2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ca.load_tensor(warm) is None
            assert np.array_equal(warm.structure_tensor(), tensor)
        assert set(opened) == {"B2.tensor"}
        assert {p: (cache_env / p).read_bytes() for p in old} == old
        assert Path(ca.path_for("B2")).read_bytes() == ca.encode(entry)

    def test_leftover_schema_1_json_file_is_never_read(self, cache_env):
        old = cache_env / "B2.json"
        old.write_text('{"schema_version": 1, "triples": []}')
        system = build_system(type="B2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ca.load_tensor(system) is None
            tensor = system.structure_tensor()
        assert np.array_equal(tensor, fresh_system("B2").structure_tensor())
        assert os.path.exists(ca.path_for("B2"))
        assert old.read_text() == '{"schema_version": 1, "triples": []}'


class TestCorruption:
    def entry_path(self, cache_env, label="A2"):
        system = fresh_system(label)
        ca.store_tensor(system, support_of(system.structure_tensor()))
        return system, ca.path_for(label)

    def test_truncation_raises(self, cache_env):
        _, path = self.entry_path(cache_env)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CorruptCache):
            ca.cache_load("A2")

    def test_checksum_tamper_raises(self, cache_env):
        # a changed constant under the old sha256
        _, path = self.entry_path(cache_env)
        blob = Path(path).read_bytes()
        entry = read_entry(path)
        entry["support"][0, 0] += 1
        Path(path).write_bytes(ca.encode(entry)[:-32] + blob[-32:])
        with pytest.raises(CorruptCache, match="checksum"):
            ca.cache_load("A2")

    def test_non_object_payload_raises(self, cache_env):
        system, path = self.entry_path(cache_env)
        write_archive(path, [1, 2, 3],
                      read_entry(path)["support"].tobytes())
        with pytest.raises(CorruptCache, match="not an object"):
            ca.cache_load("A2")

    def test_non_canonical_header_raises(self, cache_env):
        # the same header with other whitespace, under a matching sha256
        system, path = self.entry_path(cache_env)
        entry = read_entry(path)
        support = entry.pop("support")
        body = json.dumps(entry, sort_keys=True, indent=0).replace(
            "\n", " ").encode("utf-8") + b"\n" + support.tobytes()
        Path(path).write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CorruptCache, match="canonical"):
            ca.cache_load("A2")

    def test_load_tensor_warns_and_recomputes(self, cache_env):
        system, path = self.entry_path(cache_env)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:len(blob) // 2])
        with pytest.warns(UserWarning, match="corrupt"):
            assert ca.load_tensor(system) is None

    def test_stale_schema_version_recomputes_silently(self, cache_env):
        system, path = self.entry_path(cache_env)
        entry = read_entry(path)
        entry["schema_version"] = ca.SCHEMA_VERSION + 1
        write_entry(path, entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ca.cache_load("A2") is None
            assert ca.load_tensor(system) is None

    def test_foreign_matrix_digest_is_stale(self, cache_env):
        # the B3 tensor stored by a system whose generators come in
        # another order: same label, rank and order, another matrix
        system, path = self.entry_path(cache_env, "B3")
        _labels, mat = cartan.matrix_for_components(cartan.parse_label("B3"))
        permuted = [[mat[a][b] for b in (2, 0, 1)] for a in (2, 0, 1)]
        entry = read_entry(path)
        entry["matrix_digest"] = ca.matrix_digest(permuted, system.labels)
        write_entry(path, entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ca.cache_load("B3") is None
            assert ca.load_tensor(system) is None

    def test_mismatched_system_is_rejected(self, cache_env):
        # an entry whose label says A2 but whose numbers disagree with
        # the built system must not be trusted
        system, path = self.entry_path(cache_env)
        entry = read_entry(path)
        entry["rank"] = 5
        write_entry(path, entry)
        with pytest.warns(UserWarning, match="does not match"):
            assert ca.load_tensor(system) is None

    def test_malformed_triples_warn(self, cache_env):
        # a header of the current schema over the triples of schema 2:
        # the bytes do not fill the declared support
        system, path = self.entry_path(cache_env)
        entry = read_entry(path)
        header = {k: v for k, v in entry.items() if k != "support"}
        write_archive(path, header, nonzero_triples(
            system.structure_tensor()).tobytes())
        with pytest.warns(UserWarning, match="corrupt"):
            assert ca.load_tensor(system) is None

    @pytest.mark.parametrize("damage", [
        lambda s: s + 0.5,           # not an integer
        lambda s: s[:, :-1],         # a column short
        lambda s: s[:-1],            # a row short
        lambda s: s.T,               # (3^n, 2^n)
        lambda s: s.ravel(),         # flat
    ], ids=["float", "column-short", "row-short", "transposed", "flat"])
    def test_malformed_support_is_rejected(self, cache_env, damage):
        system, path = self.entry_path(cache_env)
        good = Path(path).read_bytes()
        entry = read_entry(path)
        entry["support"] = np.ascontiguousarray(damage(entry["support"]))
        write_entry(path, entry)
        with pytest.warns(UserWarning, match="malformed"):
            assert ca.load_tensor(system) is None
        with pytest.warns(UserWarning, match="malformed"):
            tensor = build_system(type="A2").structure_tensor()
        assert np.array_equal(tensor, system.structure_tensor())
        assert Path(path).read_bytes() == good

    def test_invariant_failure_warns_and_recomputes(self, cache_env):
        # one constant bumped under a matching sha256: the file is sound,
        # the tensor fails the Mackey count
        system, path = self.entry_path(cache_env, "B3")
        fresh = system.structure_tensor()
        entry = read_entry(path)
        # the first pair is (J, K) = (0, 0)
        assert entry["support"][0, 0] == fresh[0, 0, 0] == 48
        entry["support"][0, 0] += 1
        write_entry(path, entry)
        with pytest.warns(UserWarning, match="Mackey"):
            assert ca.load_tensor(system) is None
        with pytest.warns(UserWarning, match="invariants"):
            rebuilt = build_system(type="B3").structure_tensor()
        assert np.array_equal(rebuilt, fresh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(ca.load_tensor(system), fresh)


def _stored_a2():
    # reads through no cache directory: make_entry and encode are pure
    system = fresh_system("A2")
    tensor = system.structure_tensor()
    return ca.encode(ca.make_entry(system, support_of(tensor))), tensor


_GOOD_A2, _A2_TENSOR = _stored_a2()


def damaged(draw_kind, offset, xor):
    if draw_kind == "truncate":
        return _GOOD_A2[:offset]
    blob = bytearray(_GOOD_A2)
    blob[offset] ^= xor
    return bytes(blob)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["truncate", "flip"]),
       st.integers(0, len(_GOOD_A2) - 1), st.integers(1, 255))
@example("truncate", 0, 1)
@example("flip", 0, 1)
@example("flip", len(_GOOD_A2) - 1, 0xff)
def test_damaged_file_warns_and_recomputes(tmp_path_factory, kind, offset,
                                           xor):
    # a truncated file or one flipped byte anywhere, zip metadata
    # included, loads as None with a warning and never raises
    path = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DESCENT_CACHE_DIR", str(path))
        with open(ca.path_for("A2"), "wb") as fh:
            fh.write(damaged(kind, offset, xor))
        system = build_system(type="A2")
        with pytest.warns(UserWarning):
            assert ca.load_tensor(system) is None
        with pytest.warns(UserWarning):
            tensor = system.structure_tensor()
        assert np.array_equal(tensor, _A2_TENSOR)
        with open(ca.path_for("A2"), "rb") as fh:
            assert fh.read() == _GOOD_A2


class TestPermutedMatrix:
    @pytest.mark.parametrize("label,perm", [
        ("F4", (2, 0, 3, 1)), ("D5", (4, 1, 3, 0, 2)),
    ])
    def test_permuted_matrix_never_reads_the_label_file(
            self, cache_env, monkeypatch, label, perm):
        tensor = build_system(type=label).structure_tensor()   # primes
        path = ca.path_for(label)
        blob = Path(path).read_bytes()
        reads = []
        monkeypatch.setattr(ca, "cache_load",
                            lambda lab: reads.append(lab))
        _labels, mat = cartan.matrix_for_components(
            cartan.parse_label(label))
        permuted = build_system(
            matrix=[[mat[a][b] for b in perm] for a in perm])
        T = permuted.structure_tensor()
        assert reads == []
        # mask M of the permuted system is the mask of {perm[i] : i in M}
        full = 1 << len(perm)
        image = np.array([sum(1 << perm[i] for i in range(len(perm))
                              if m >> i & 1) for m in range(full)])
        assert np.array_equal(T, tensor[np.ix_(image, image, image)])
        assert Path(path).read_bytes() == blob


    def test_matrix_built_systems_never_touch_the_cache(
            self, cache_env, monkeypatch):
        # the F4 and A5 files hold tensors in the numbering of their
        # labels; neither system below may read or write them
        base = {label: build_system(type=label).structure_tensor()
                for label in ("F4", "A5")}
        before = {p.name: p.read_bytes() for p in cache_env.iterdir()}
        assert set(before) == {"F4.tensor", "A5.tensor"}

        def refuse(*args):
            raise AssertionError("a matrix-built system touched the cache")

        monkeypatch.setattr(ca, "load_tensor", refuse)
        monkeypatch.setattr(ca, "store_tensor", refuse)
        perm = (2, 0, 3, 1)
        _labels, mat = cartan.matrix_for_components(cartan.parse_label("F4"))
        permuted = CoxeterSystem([[mat[a][b] for b in perm] for a in perm],
                                 cache=True)
        e6 = build_system(type="E6")
        sub = morphisms.parabolic_system(e6, 0b111101)
        assert sub.type_label == "A5"
        # generator a of the sub-matrix plays the standard generator
        # perm[a], as its classification numbers them
        (_fam, _p, order), = cartan.classify_parts(sub.matrix)
        for system, label, perm in ((permuted, "F4", perm),
                                    (sub, "A5", np.argsort(order))):
            e = expand_masks(perm)
            assert np.array_equal(system.structure_tensor(),
                                  base[label][np.ix_(e, e, e)])
        assert {p.name: p.read_bytes() for p in cache_env.iterdir()} == before

    def test_cache_true_holds_for_the_label_numbering_only(self, cache_env):
        labels, mat = cartan.matrix_for_components(cartan.parse_label("D4"))
        assert CoxeterSystem(mat, labels=labels, cache=True).cache_enabled
        assert not CoxeterSystem(mat, labels=labels).cache_enabled
        # the label's matrix under other generator names
        assert not CoxeterSystem(mat, cache=True).cache_enabled
        assert not CoxeterSystem([], cache=True).cache_enabled


class TestNoCacheSuites:
    @pytest.mark.parametrize("label", ["B4", "D4"])
    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_suite_without_cache_writes_nothing(self, cache_env, suite,
                                                label):
        verify.run_suite(suite, label, cache=False)
        assert list(cache_env.iterdir()) == []

    @pytest.mark.parametrize("label,built", [
        ("B4", ["B4", "D3", "D4"]), ("D4", ["D4"])])
    def test_morphisms_suite_builds_each_label_once(
            self, cache_env, monkeypatch, label, built):
        # the fork square's lower fold starts from the parabolic B3 that
        # the suite already holds, so only its D3 codomain is built anew
        labels = []

        def recording(type=None, **kwargs):
            if type is not None:
                labels.append(type)
            return build_system(type=type, **kwargs)

        for module in (verify, morphisms):
            monkeypatch.setattr(module, "build_system", recording)
        verify.run_suite("morphisms", label, cache=False)
        assert sorted(labels) == built


class TestLogging:
    def test_events_reach_the_cache_logger(self, cache_env, caplog):
        caplog.set_level(logging.DEBUG, logger="descent.cache")
        system = build_system(type="A2")
        system.structure_tensor()
        build_system(type="A2").structure_tensor()
        path = ca.path_for("A2")
        entry = read_entry(path)
        entry["schema_version"] = ca.SCHEMA_VERSION + 1
        write_entry(path, entry)
        ca.load_tensor(system)
        Path(path).write_bytes(b"PK")
        with pytest.warns(UserWarning):
            ca.load_tensor(system)
        events = [(r.levelno, r.getMessage().split()[0])
                  for r in caplog.records if r.name == "descent.cache"]
        assert events == [(logging.DEBUG, "miss"), (logging.DEBUG, "hit"),
                          (logging.DEBUG, "stale"),
                          (logging.WARNING, "ignoring")]

    def test_no_record_is_made_below_the_level(self, cache_env,
                                               monkeypatch):
        # logging off (the default WARNING level): a miss, a store and a
        # hit build no log record at all
        assert not ca._log.isEnabledFor(logging.DEBUG)

        def refuse(*args, **kwargs):
            raise AssertionError("a log record was built")

        monkeypatch.setattr(logging.Logger, "makeRecord", refuse)
        build_system(type="A2").structure_tensor()
        assert ca.load_tensor(build_system(type="A2")) is not None


class TestEntryContents:
    def test_entry_fields(self, cache_env):
        system = fresh_system("B2")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, support_of(tensor))
        assert entry["schema_version"] == ca.SCHEMA_VERSION
        assert entry["type_label"] == "B2"
        assert entry["rank"] == 2
        assert entry["group_order"] == 8
        assert entry["dtype"] == np.dtype(np.int32).str
        assert entry["shape"] == [4, 9]
        assert entry["matrix_digest"] == ca.matrix_digest(system.matrix,
                                                          system.labels)
        assert entry["support"].shape == (4, 9)
        # the support holds every nonzero constant
        assert np.count_nonzero(entry["support"]) == np.count_nonzero(
            tensor)

    def test_store_writes_int32_support_in_pair_order(self, cache_env):
        system = fresh_system("B4")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, support_of(tensor))
        path = ca.cache_store(entry)
        with open(path, "rb") as fh:
            assert fh.read() == ca.encode(entry)
        stored = read_entry(path)["support"]
        assert stored.dtype == np.int32
        J, K, _starts = support_pairs(4)
        assert np.array_equal(stored, tensor[:, J, K])

    def test_support_beyond_int32_stays_int64(self, cache_env):
        system = fresh_system("A2")
        tensor = system.structure_tensor().copy()
        tensor[0, 0, 0] = 1 << 40
        entry = ca.make_entry(system, support_of(tensor))
        assert entry["support"].dtype == np.int64
        assert entry["support"][0, 0] == 1 << 40

    @pytest.mark.parametrize("big,digest", [
        (False, "7123cbcefae4c0450e06f5734b0f71f9"
                "b801cbbb3a4fa168ec272377f52fad7b"),
        (True, "e9633a26b9f058c8c7184400b45090d8"
               "0388dcf66bbda9b1ee162d7fe2a44bce"),
    ], ids=["int32", "int64"])
    def test_file_format_is_pinned(self, cache_env, big, digest):
        # a change to these bytes needs a new SCHEMA_VERSION and a new pin
        system = fresh_system("A2")
        tensor = system.structure_tensor().copy()
        if big:
            tensor[0, 0, 0] = 1 << 40
        blob = ca.encode(ca.make_entry(system, support_of(tensor)))
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_encoding_is_canonical(self, cache_env):
        # equal content, equal bytes: the header is sorted JSON and the
        # trailer is the sha256 of what comes before it
        system = fresh_system("B3")
        entry = ca.make_entry(system, support_of(system.structure_tensor()))
        first = ca.encode(entry)
        assert ca.encode(dict(reversed(entry.items()))) == first
        blob = Path(ca.cache_store(entry)).read_bytes()
        assert blob == first
        assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()

    def test_entry_holds_no_shape_classes(self, cache_env):
        system = fresh_system("B3")
        ca.store_tensor(system, support_of(system.structure_tensor()))
        assert "shape_classes" not in read_entry(ca.path_for("B3"))

    def test_entry_with_shape_classes_still_loads(self, cache_env):
        # a header carrying shapes, as schema-1 files did, is a hit when
        # its sha256 matches; the shapes are still read off the tensor
        system = fresh_system("B3")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, support_of(tensor))
        entry["shape_classes"] = [list(s.members) for s in system.shapes()]
        write_entry(ca.path_for("B3"), entry)
        warm = build_system(type="B3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(ca.load_tensor(warm), tensor)
            assert np.array_equal(warm.structure_tensor(), tensor)
        assert "rasc" not in warm.__dict__

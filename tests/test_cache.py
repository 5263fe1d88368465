"""Structure-constant cache: round trips, corruption handling, and the
environment override for the directory."""

import json
import logging
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import descent.cache as ca
from descent import cartan, morphisms
from descent.coxeter import CoxeterSystem, build_system, expand_masks
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
    """The header and triples of a cache file, unchecked."""
    with np.load(path) as npz:
        entry = json.loads(npz["header"].tobytes())
        entry["triples"] = npz["triples"]
    return entry


def write_entry(path, entry):
    """Write `entry` with a sha256 that matches its triples."""
    entry["sha256"] = ca._sha256(entry["triples"])
    with open(path, "wb") as fh:
        fh.write(ca.encode(entry))


def with_rows(triples, rows):
    """`triples` with `rows` appended; when the rows are not all four
    long the result is the flat list of numbers, which no longer splits
    into [I, J, K, value] rows."""
    rows = triples.tolist() + rows
    if any(len(r) != 4 for r in rows):
        return np.array([v for r in rows for v in r])
    return np.array(rows)


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
        assert os.path.basename(path) == "I2_5.npz"
        assert os.path.dirname(path) == str(cache_env)


class TestRoundTrip:
    def test_store_then_load_tensor(self, cache_env):
        system = fresh_system("B2")
        tensor = system.structure_tensor()
        target = ca.store_tensor(system, tensor)
        assert target and os.path.exists(target)
        again = ca.load_tensor(system)
        assert np.array_equal(again, tensor)

    def test_atomic_write_leaves_no_temp_files(self, cache_env):
        system = fresh_system("A2")
        ca.store_tensor(system, system.structure_tensor())
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
        ca.store_tensor(system, system.structure_tensor())
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
        entry = read_entry(path)
        entry["triples"][0, 3] += 1
        with open(path, "wb") as fh:
            fh.write(ca.encode(entry))
        with pytest.raises(CorruptCache, match="checksum"):
            ca.cache_load("A2")

    def test_non_object_payload_raises(self, cache_env):
        system, path = self.entry_path(cache_env)
        triples = read_entry(path)["triples"]
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(b"[1, 2, 3]", dtype=np.uint8),
                     triples=triples)
        with pytest.raises(CorruptCache, match="not an object"):
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
        system, path = self.entry_path(cache_env)
        entry = read_entry(path)
        entry["triples"] = np.array([[0, 0]])
        write_entry(path, entry)
        with pytest.warns(UserWarning, match="malformed"):
            assert ca.load_tensor(system) is None

    @pytest.mark.parametrize("extra", [
        [-1, 0, 0, 5],      # a negative index would wrap to T[3, 0, 0]
        [0, 4, 0, 1],       # past the last subset of A2
        [0, 0, 0, 1.5],     # not an integer
        [0, 0, 0],          # too short
        [3, 3, 3, 2],       # repeats an index the entry already sets
        [0, 1, 1, 0],       # entries hold nonzero constants only
    ])
    def test_malformed_extra_triple_is_rejected(self, cache_env, extra):
        system, path = self.entry_path(cache_env)
        entry = read_entry(path)
        entry["triples"] = with_rows(entry["triples"], [extra])
        write_entry(path, entry)
        with pytest.warns(UserWarning, match="malformed"):
            assert ca.load_tensor(system) is None

    def test_invariant_failure_warns_and_recomputes(self, cache_env):
        # one constant bumped under a matching sha256: the file is sound,
        # the tensor fails the Mackey count
        system, path = self.entry_path(cache_env, "B3")
        fresh = system.structure_tensor()
        entry = read_entry(path)
        assert entry["triples"][0].tolist() == [0, 0, 0, 48]
        entry["triples"][0, 3] += 1
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
    return ca.encode(ca.make_entry(system, tensor)), tensor


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
        assert set(before) == {"F4.npz", "A5.npz"}

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
        entry = ca.make_entry(system, tensor)
        assert entry["schema_version"] == ca.SCHEMA_VERSION
        assert entry["type_label"] == "B2"
        assert entry["rank"] == 2
        assert entry["group_order"] == 8
        assert len(entry["sha256"]) == 64
        assert entry["matrix_digest"] == ca.matrix_digest(system.matrix,
                                                          system.labels)
        for a, b, c, v in entry["triples"]:
            assert tensor[a, b, c] == v
        assert len(entry["triples"]) == int(np.count_nonzero(tensor))

    def test_store_writes_int32_triples_in_nonzero_order(self, cache_env):
        system = fresh_system("B4")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, tensor)
        path = ca.cache_store(entry)
        with open(path, "rb") as fh:
            assert fh.read() == ca.encode(entry)
        stored = read_entry(path)["triples"]
        assert stored.dtype == np.int32
        ii, jj, kk = np.nonzero(tensor)
        assert stored.tolist() == [
            [int(a), int(b), int(c), int(tensor[a, b, c])]
            for a, b, c in zip(ii, jj, kk)]

    def test_triples_beyond_int32_stay_int64(self, cache_env):
        system = fresh_system("A2")
        tensor = system.structure_tensor().copy()
        tensor[0, 0, 0] = 1 << 40
        entry = ca.make_entry(system, tensor)
        assert entry["triples"].dtype == np.int64
        assert entry["triples"][0].tolist() == [0, 0, 0, 1 << 40]

    def test_encoding_is_canonical(self, cache_env):
        # equal content, equal bytes: the zip metadata carries no clock
        system = fresh_system("B3")
        entry = ca.make_entry(system, system.structure_tensor())
        first = ca.encode(entry)
        assert ca.encode(dict(entry)) == first
        assert read_entry(ca.cache_store(entry))["sha256"] == \
            entry["sha256"]

    def test_entry_holds_no_shape_classes(self, cache_env):
        system = fresh_system("B3")
        ca.store_tensor(system, system.structure_tensor())
        assert "shape_classes" not in read_entry(ca.path_for("B3"))

    def test_entry_with_shape_classes_still_loads(self, cache_env):
        # a header carrying shapes, as schema-1 files did, is a hit when
        # its sha256 matches; the shapes are still read off the tensor
        system = fresh_system("B3")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, tensor)
        entry["shape_classes"] = [list(s.members) for s in system.shapes()]
        write_entry(ca.path_for("B3"), entry)
        warm = build_system(type="B3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(ca.load_tensor(warm), tensor)
            assert np.array_equal(warm.structure_tensor(), tensor)
        assert "rasc" not in warm.__dict__

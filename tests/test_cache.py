"""Structure-constant cache: round trips, corruption handling, and the
environment override for the directory."""

import io
import json
import os
import warnings

import numpy as np
import pytest

import descent.cache as ca
from descent.coxeter import build_system
from descent.errors import CorruptCache


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
    return tmp_path


def fresh_system(label):
    # bypass the shared session factory: cache tests need systems whose
    # tensors were computed rather than loaded
    return build_system(type=label, cache=False)


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
        assert os.path.basename(path) == "I2_5.json"
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


class TestCorruption:
    def entry_path(self, cache_env, label="A2"):
        system = fresh_system(label)
        ca.store_tensor(system, system.structure_tensor())
        return system, ca.path_for(label)

    def test_truncation_raises(self, cache_env):
        _, path = self.entry_path(cache_env)
        blob = open(path).read()
        open(path, "w").write(blob[:len(blob) // 2])
        with pytest.raises(CorruptCache):
            ca.cache_load("A2")

    def test_checksum_tamper_raises(self, cache_env):
        _, path = self.entry_path(cache_env)
        entry = json.load(open(path))
        entry["group_order"] = 7
        json.dump(entry, open(path, "w"))
        with pytest.raises(CorruptCache):
            ca.cache_load("A2")

    def test_non_object_payload_raises(self, cache_env):
        _, path = self.entry_path(cache_env)
        json.dump([1, 2, 3], open(path, "w"))
        with pytest.raises(CorruptCache):
            ca.cache_load("A2")

    def test_load_tensor_warns_and_recomputes(self, cache_env):
        system, path = self.entry_path(cache_env)
        blob = open(path).read()
        open(path, "w").write(blob[:len(blob) // 2])
        with pytest.warns(UserWarning, match="corrupt"):
            assert ca.load_tensor(system) is None

    def test_stale_schema_version_recomputes_silently(self, cache_env):
        system, path = self.entry_path(cache_env)
        entry = json.load(open(path))
        entry["schema_version"] = ca.SCHEMA_VERSION + 1
        entry["checksum"] = ca._checksum(
            {k: v for k, v in entry.items() if k != "checksum"})
        json.dump(entry, open(path, "w"))
        assert ca.cache_load("A2") is None
        assert ca.load_tensor(system) is None

    def test_mismatched_system_is_rejected(self, cache_env):
        # an entry whose label says A2 but whose numbers disagree with
        # the built system must not be trusted
        system, path = self.entry_path(cache_env)
        entry = json.load(open(path))
        entry["rank"] = 5
        entry["checksum"] = ca._checksum(
            {k: v for k, v in entry.items() if k != "checksum"})
        json.dump(entry, open(path, "w"))
        with pytest.warns(UserWarning, match="does not match"):
            assert ca.load_tensor(system) is None

    def test_malformed_triples_warn(self, cache_env):
        system, path = self.entry_path(cache_env)
        entry = json.load(open(path))
        entry["triples"] = [[0, 0]]
        entry["checksum"] = ca._checksum(
            {k: v for k, v in entry.items() if k != "checksum"})
        json.dump(entry, open(path, "w"))
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
        entry = json.load(open(path))
        entry["triples"].append(extra)
        entry["checksum"] = ca._checksum(
            {k: v for k, v in entry.items() if k != "checksum"})
        json.dump(entry, open(path, "w"))
        with pytest.warns(UserWarning, match="malformed"):
            assert ca.load_tensor(system) is None

class TestEntryContents:
    def test_entry_fields(self, cache_env):
        system = fresh_system("B2")
        entry = ca.make_entry(system, system.structure_tensor())
        assert entry["schema_version"] == ca.SCHEMA_VERSION
        assert entry["type_label"] == "B2"
        assert entry["rank"] == 2
        assert entry["group_order"] == 8
        assert len(entry["checksum"]) == 16
        tensor = system.structure_tensor()
        for a, b, c, v in entry["triples"]:
            assert tensor[a, b, c] == v
        assert len(entry["triples"]) == int(np.count_nonzero(tensor))

    def test_store_writes_what_json_dump_wrote(self, cache_env):
        system = fresh_system("B4")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, tensor)
        ii, jj, kk = np.nonzero(tensor)
        assert entry["triples"] == [
            [int(a), int(b), int(c), int(tensor[a, b, c])]
            for a, b, c in zip(ii, jj, kk)]
        streamed = io.StringIO()
        json.dump(entry, streamed)
        with open(ca.cache_store(entry), "rb") as fh:
            assert fh.read() == streamed.getvalue().encode("utf-8")

    def test_entry_holds_no_shape_classes(self, cache_env):
        system = fresh_system("B3")
        ca.store_tensor(system, system.structure_tensor())
        with open(ca.path_for("B3")) as fh:
            assert "shape_classes" not in json.load(fh)

    def test_entry_with_shape_classes_still_loads(self, cache_env):
        # files written before the shapes were derived from the tensor
        # carry them; with a valid checksum they are still hits
        system = fresh_system("B3")
        tensor = system.structure_tensor()
        entry = ca.make_entry(system, tensor)
        entry["shape_classes"] = [list(s.members) for s in system.shapes()]
        entry["checksum"] = ca._checksum(
            {k: v for k, v in entry.items() if k != "checksum"})
        with open(ca.path_for("B3"), "w") as fh:
            json.dump(entry, fh)
        warm = build_system(type="B3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(ca.load_tensor(warm), tensor)
            assert np.array_equal(warm.structure_tensor(), tensor)
        assert "rasc" not in warm.__dict__

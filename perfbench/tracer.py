"""Outside-in tracing of the descent package.

Each traced name is wrapped at every place it is bound: a function that
other modules import by name (``build_system`` lives in ``coxeter``,
``table``, ``verify``, ``morphisms``, ``cli`` and the package itself) is
replaced in every ``descent`` module that holds it, and methods are
replaced on their class. Spans are aggregated in memory per name: call
count, self time (the span minus its child spans) and total time
(counted once for nested calls of the same name).
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute path, span name). A dotted attribute path names a
# method on a class. Several targets may share one span name.
TARGETS = (
    ("coxeter", "build_system", "coxeter.build_system"),
    ("coxeter", "CoxeterSystem.structure_tensor", "coxeter.structure_tensor"),
    ("coxeter", "CoxeterSystem.lmul", "coxeter.group_tables"),
    ("coxeter", "CoxeterSystem.conj_tables", "coxeter.group_tables"),
    ("coxeter", "CoxeterSystem.multiplication_table", "coxeter.group_tables"),
    ("coxeter", "CoxeterSystem.left_translation", "coxeter.group_tables"),
    ("coxeter", "CoxeterSystem.right_translation", "coxeter.group_tables"),
    ("coxeter", "CoxeterSystem.structure_set", "coxeter.structure_set"),
    ("cache", "load_tensor", "cache.load_tensor"),
    ("cache", "store_tensor", "cache.store_tensor"),
    ("algebra", "multiply", "algebra.multiply"),
    ("algebra", "oracle_multiply", "algebra.oracle_multiply"),
    ("algebra", "loewy_profile", "algebra.loewy_profile"),
    ("algebra", "radical_basis", "algebra.radical_basis"),
    ("algebra", "tau_matrix", "algebra.tau_matrix"),
    ("algebra", "minimal_polynomial", "algebra.minimal_polynomial"),
    ("algebra", "right_ideal", "algebra.right_ideal"),
    ("algebra", "left_ideal", "algebra.left_ideal"),
    ("algebra", "commutator_image", "algebra.commutator_image"),
    ("linalg", "Span.add", "linalg.Span.add"),
    ("linalg", "Span.contains", "linalg.Span.contains"),
    ("linalg", "AugSpan.add", "linalg.AugSpan.add"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("automorphisms", "loewy_profile_fixed",
     "automorphisms.loewy_profile_fixed"),
    ("automorphisms", "fixed_subalgebra", "automorphisms.fixed_subalgebra"),
    ("automorphisms", "FixedSubalgebra.radical_vectors",
     "automorphisms.FixedSubalgebra.radical_vectors"),
    ("morphisms", "goetz1_set_check", "morphisms.goetz1_set_check"),
    ("morphisms", "res_K", "morphisms.res_K"),
    ("morphisms", "bbht_a_check", "morphisms.bbht_a_check"),
    ("morphisms", "res_linear_check", "morphisms.res_linear_check"),
    ("morphisms", "res_tau_check", "morphisms.res_tau_check"),
    ("morphisms", "decomposition_check", "morphisms.decomposition_check"),
    ("morphisms", "surjectivity_report", "morphisms.surjectivity_report"),
    ("table", "build_row", "table.build_row"),
    ("verify", "run_suite", "verify.run_suite"),
    ("exprs", "parse_expression", "exprs.parse_expression"),
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    """Span aggregates plus the counters that are read off call results."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        self._undo = []
        self._tensor_seen = weakref.WeakSet()

    # -- spans ----------------------------------------------------------

    def _enter(self, name):
        self.stats[name].depth += 1
        self._stack.append(0.0)

    def _exit(self, name, elapsed):
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        st = self.stats[name]
        st.calls += 1
        st.self_s += elapsed - child
        st.depth -= 1
        if st.depth == 0:
            st.total_s += elapsed

    def wrap(self, name, fn):
        after = _AFTER.get(name)
        names = _suite_span if name == "verify.run_suite" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = (name,) if names is None else (name, names(args, kwargs))
            before = self.counts["cache.load_tensor.hits"]
            for span in spans:
                self._enter(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                for span in reversed(spans):
                    self._exit(span, elapsed)
            if after is not None:
                after(self, result, args, before)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target; a target the package no longer defines is
        listed in ``missing`` so the required-span check can name it."""
        for modname, path, span in TARGETS:
            module = sys.modules.get("descent." + modname)
            owner_name, _, attr = path.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append("%s.%s" % (modname, path))
                continue
            wrapper = self.wrap(span, original)
            if owner_name:
                self._rebind(owner, attr, wrapper, original)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "descent" and not name.startswith("descent."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper, original)

    def _rebind(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- reading --------------------------------------------------------

    def value(self, metric):
        """Value of one per-layer metric name, 0 when never reached."""
        if metric in self.counts:
            return self.counts[metric]
        span, _, field = metric.rpartition(".")
        if field in ("calls", "self_s", "total_s") and span in self.stats:
            return getattr(self.stats[span], field)
        if metric == "linalg.Span.add.useful_ratio":
            calls = self.stats["linalg.Span.add"].calls
            useful = self.counts["linalg.Span.add.useful"]
            return useful / calls if calls else 0.0
        return 0


def _suite_span(args, kwargs):
    suite = args[0] if args else kwargs.get("suite")
    return "verify.run_suite.%s" % suite


def _after_build_system(tracer, system, args, hits_before):
    tracer.counts["coxeter.elements"] += system.order


def _after_structure_tensor(tracer, tensor, args, hits_before):
    system = args[0]
    if system in tracer._tensor_seen:
        return
    tracer._tensor_seen.add(system)
    if tracer.counts["cache.load_tensor.hits"] == hits_before:
        tracer.counts["coxeter.tensors_computed"] += 1


def _after_load_tensor(tracer, tensor, args, hits_before):
    from descent import cache

    if tensor is None:
        tracer.counts["cache.load_tensor.misses"] += 1
        return
    tracer.counts["cache.load_tensor.hits"] += 1
    path = cache.path_for(args[0].type_label)
    tracer.counts["cache.load_tensor.bytes"] += os.path.getsize(path)


def _after_store_tensor(tracer, path, args, hits_before):
    if path is not None:
        tracer.counts["cache.store_tensor.bytes"] += os.path.getsize(path)


def _after_span_add(tracer, grew, args, hits_before):
    if grew:
        tracer.counts["linalg.Span.add.useful"] += 1


_AFTER = {
    "coxeter.build_system": _after_build_system,
    "coxeter.structure_tensor": _after_structure_tensor,
    "cache.load_tensor": _after_load_tensor,
    "cache.store_tensor": _after_store_tensor,
    "linalg.Span.add": _after_span_add,
}

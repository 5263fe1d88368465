"""The two benchmark workloads and the segments of the warm one.

``warm`` runs three segments back to back on a primed private cache:
``table`` (``descent table --type all``), ``verify`` (a roster of seven
``descent verify`` suites) and ``mult`` (``descent mult`` requests).
``build-cold`` computes the structure tensors of the roster plus D7 from
an empty cache. Every workload is a closed loop with one client:
each item starts when the previous one returns, and each item builds its
own system, as one CLI invocation does. The seed only shapes the inputs:
it permutes the type order of ``table`` and ``build-cold``, is the
``run_suite`` seed of ``verify`` and draws the ``mult`` expressions.

A workload provides:

- ``prime``: the labels whose structure tensors set-up writes into the
  private cache (empty for ``build-cold``, whose passes start cold);
- ``inputs(seed, labels)``: the items of one pass, given the generator
  labels of each primed type;
- ``run(item)``: the timed call into the package;
- ``summarize(item, output)``: an untimed digest kept in place of the
  output, so no system or tensor outlives its item;
- ``check(results, seed, references)``: per-item problems found after
  the pass, outside the timed region;
- ``segment(item)``: the segment an item belongs to; ``mult`` items are
  the requests of the request percentiles, and a workload without them
  counts its whole pass as one request;
- ``required_spans``: spans the traced run must reach.
"""

from __future__ import annotations

import hashlib
import math
import random
import types
from fractions import Fraction

import numpy as np

import descent
import descent.cache
import descent.cartan
import descent.cli
import descent.table
import descent.verify

DEFAULT_SEED = 0
# D7 alone is built: A7 would add 6 s to every cold pass for no layer
# D7 does not reach; both memory estimates are recorded
RANK7_BUILT = ("D7",)
RANK7_ESTIMATED = ("A7", "D7")
# the four slow types first, so the extra half cycle goes to them
MULT_TYPES = ("H4", "B6", "D6", "E6", "A5", "B5", "D5", "F4")
REQUEST_SEGMENT = "mult"
# 12.5 cycles of MULT_TYPES: the median request then falls among the
# fastest H4 requests instead of on the gap between the four fast and
# the four slow types, and 10 requests lie beyond p90
MULT_REQUESTS = 100
ORACLE_MAX_ORDER = 1152
VERIFY_ROSTER = (
    ("solomon-oracle", "F4"),
    ("positivity", "B3"),
    ("morphisms", "B4"),
    ("morphisms", "D4"),
    ("loewy-bounds", "D5"),
    ("bhs-symmetry", "E6"),
    ("b-tau-question", "B5"),
)


def _shuffled(labels, seed):
    out = list(labels)
    random.Random("order:%d" % seed).shuffle(out)
    return out


def tensor_digest(tensor):
    arr = np.ascontiguousarray(tensor, dtype=np.int64)
    head = ("%s:" % (arr.shape,)).encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# segments of the warm workload


class TableRows:
    name = "table"
    required_spans = (
        "coxeter.build_system", "cache.load_tensor", "table.build_row",
        "algebra.multiply", "algebra.loewy_profile", "algebra.radical_basis",
        "linalg.Span.add", "automorphisms.loewy_profile_fixed",
        "automorphisms.fixed_subalgebra",
        "automorphisms.FixedSubalgebra.radical_vectors",
    )

    def inputs(self, seed, labels):
        return _shuffled(descent.table.SUPPORTED_TYPES, seed)

    def run(self, label):
        table = descent.table
        system = descent.build_system(type=label)
        return [table.row_dict(table.build_row(label, k, system=system))
                for k in table.available_sigma_orders(system)]

    def summarize(self, label, rows):
        return rows

    def check(self, results, seed, references):
        expected = references["table"]
        return {i: "rows differ from the stored reference"
                for i, label, rows in results
                if rows != expected[label]}


# ---------------------------------------------------------------------------
# build-cold


def parabolic_orders(label):
    """|W_K| for every generator subset K, from the Coxeter matrix alone
    (an independent route from the enumeration that fills the tensor)."""
    cartan = descent.cartan
    _, matrix = cartan.matrix_for_components(cartan.parse_label(label))
    n = len(matrix)
    out = np.ones(1 << n, dtype=object)
    for mask in range(1, 1 << n):
        pos = [i for i in range(n) if mask >> i & 1]
        sub = [[matrix[i][j] for j in pos] for i in pos]
        comps = cartan.parse_label(cartan.classify_matrix(sub))
        out[mask] = cartan.order_for_components(comps)
    return out


def tensor_invariant_problems(label, tensor):
    """Unit rows and the Mackey count of one structure tensor.

    With S the full subset, T[S, J, K] = T[J, S, K] = delta_JK, and
    sum_K T[I, J, K] / |W_K| = |W| / (|W_I| |W_J|), checked in integers
    after multiplying through by |W|.
    """
    size = tensor.shape[0]
    full = size - 1
    orders = parabolic_orders(label)
    index = [int(orders[full] // o) for o in orders]
    problems = []
    eye = np.eye(size, dtype=np.int64)
    if not (np.array_equal(tensor[full], eye)
            and np.array_equal(tensor[:, full, :], eye)):
        problems.append("unit rows")
    # entries and indices are at most |W| < 2**20 for rank <= 7: no overflow
    index = np.array(index, dtype=np.int64)
    lhs = np.einsum("ijk,k->ij", tensor, index)
    if not np.array_equal(lhs, np.outer(index, index)):
        problems.append("Mackey count")
    return problems


class BuildCold:
    name = "build-cold"
    prime = ()
    warm = False
    labels = descent.table.SUPPORTED_TYPES + RANK7_BUILT
    required_spans = (
        "coxeter.build_system", "coxeter.structure_tensor",
        "cache.load_tensor", "cache.store_tensor",
    )

    def inputs(self, seed, labels):
        return _shuffled(self.labels, seed)

    def segment(self, label):
        return self.name

    def run(self, label):
        system = descent.build_system(type=label, allow_rank7=True)
        return system.structure_tensor(), system.rank, system.order

    def summarize(self, label, output):
        tensor, rank, order = output
        return {"rank": rank, "order": order, "digest": tensor_digest(tensor),
                "problems": tensor_invariant_problems(label, tensor)}

    def check(self, results, seed, references):
        expected = references["build-cold"]
        problems = {}
        for i, label, out in results:
            found = list(out["problems"])
            if out["digest"] != expected[label]:
                found.append("tensor digest differs from the reference")
            # load_tensor reads only the label, rank and order of a system
            reloaded = descent.cache.load_tensor(types.SimpleNamespace(
                type_label=label, rank=out["rank"], order=out["order"]))
            if reloaded is None or tensor_digest(reloaded) != out["digest"]:
                found.append("cache file does not reload to the tensor")
            if found:
                problems[i] = ", ".join(found)
        return problems

    @staticmethod
    def rank7_estimates_mb():
        return {label: descent.cli.rank7_memory_estimate(label) / 1e6
                for label in RANK7_ESTIMATED}


class VerifySuites:
    name = "verify"
    required_spans = (
        "verify.run_suite", "algebra.multiply", "algebra.oracle_multiply",
        "coxeter.group_tables", "coxeter.structure_set",
        "morphisms.goetz1_set_check", "morphisms.res_K",
        "morphisms.bbht_a_check", "morphisms.res_linear_check",
        "morphisms.res_tau_check", "morphisms.decomposition_check",
        "morphisms.surjectivity_report", "linalg.Span.add",
        "algebra.minimal_polynomial", "algebra.right_ideal",
        "algebra.left_ideal",
    ) + tuple(sorted({"verify.run_suite.%s" % s for s, _ in VERIFY_ROSTER}))

    def inputs(self, seed, labels):
        return [(suite, label, seed) for suite, label in VERIFY_ROSTER]

    def run(self, item):
        suite, label, seed = item
        return descent.verify.run_suite(suite, label, seed=seed)

    def summarize(self, item, report):
        return {"passed": report.passed,
                "checks": ["%s:%s:%s" % (r.kind, r.name, r.passed)
                           for r in report.results]}

    def check(self, results, seed, references):
        expected = references["verify"]
        problems = {}
        for i, (suite, label, _), out in results:
            if not out["passed"]:
                problems[i] = "suite reported a failed check"
            elif (seed == DEFAULT_SEED
                  and out["checks"] != expected["%s:%s" % (suite, label)]):
                problems[i] = "check names differ from the reference"
        return problems


def tau_table(system):
    """The package's character table as exact integers."""
    return np.array([[int(v) for v in row]
                     for row in descent.algebra.tau_matrix(system)],
                    dtype=object)


def tau_scaled(table, vector):
    """tau(vector) as (integer values, common denominator), so checking
    multiplicativity needs no Fraction per product term."""
    coords = vector.x_coords()
    den = math.lcm(*(c.denominator for c in coords))
    nums = np.array([int(c * den) for c in coords], dtype=object)
    return table.dot(nums), den


def random_expression(rng, labels):
    """A 1-4 term linear combination in the x, y and xp bases."""
    text = ""
    for t in range(rng.randint(1, 4)):
        sign = rng.choice("+-")
        coeff = Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 2, 3)))
        basis = rng.choice(("x", "y", "xp"))
        subset = [lab for lab in labels if rng.random() < 0.5]
        atom = ("%sS" % basis if len(subset) == len(labels)
                else "%s[%s]" % (basis, ",".join(subset)))
        coeff = "" if coeff == 1 else "%s*" % coeff
        if t == 0:
            text = ("-" if sign == "-" else "") + coeff + atom
        else:
            text += " %s %s%s" % (sign, coeff, atom)
    return text


class MultRequests:
    name = REQUEST_SEGMENT
    required_spans = (
        "coxeter.build_system", "cache.load_tensor", "algebra.multiply",
        "exprs.parse_expression",
    )

    def inputs(self, seed, labels):
        rng = random.Random("mult:%d" % seed)
        out = []
        for i in range(MULT_REQUESTS):
            label = MULT_TYPES[i % len(MULT_TYPES)]
            names = labels[label]
            out.append((label, random_expression(rng, names),
                        random_expression(rng, names),
                        rng.choice(("x", "y", "xp"))))
        return out

    def run(self, item):
        label, left, right, basis = item
        system = descent.build_system(type=label)
        lhs = descent.parse_expression(system, left)
        rhs = descent.parse_expression(system, right)
        return str(descent.multiply(lhs, rhs).in_basis(basis))

    def summarize(self, item, text):
        return text

    def check(self, results, seed, references):
        expected = references["mult"]
        systems = {}
        problems = {}
        for k, (i, (label, left, right, basis), text) in enumerate(results):
            if label not in systems:
                system = descent.build_system(type=label)
                systems[label] = system, tau_table(system)
            system, table = systems[label]
            lhs = descent.parse_expression(system, left)
            rhs = descent.parse_expression(system, right)
            product = descent.multiply(lhs, rhs)
            found = []
            if str(product.in_basis(basis)) != text:
                found.append("product text differs on recomputation")
            (tp, dp), (tl, dl), (tr, dr) = [
                tau_scaled(table, v) for v in (product, lhs, rhs)]
            if not np.array_equal(tp * dl * dr, tl * tr * dp):
                found.append("tau is not multiplicative on the product")
            if (system.order <= ORACLE_MAX_ORDER
                    and product != descent.oracle_multiply(lhs, rhs)):
                found.append("product differs from the group-algebra oracle")
            if (seed == DEFAULT_SEED and (k >= len(expected)
                    or expected[k] != [label, left, right, basis, text])):
                found.append("request or product differs from the reference")
            if found:
                problems[i] = ", ".join(found)
        return problems


class Warm:
    name = "warm"
    # the roster holds every type the three segments build by label
    prime = descent.table.SUPPORTED_TYPES
    warm = True
    segments = {seg.name: seg for seg in (TableRows(), VerifySuites(),
                                          MultRequests())}
    required_spans = tuple(sorted({span for seg in segments.values()
                                   for span in seg.required_spans}))

    def inputs(self, seed, labels):
        return [(name, item) for name, seg in self.segments.items()
                for item in seg.inputs(seed, labels)]

    def segment(self, item):
        return item[0]

    def run(self, item):
        name, inner = item
        return self.segments[name].run(inner)

    def summarize(self, item, output):
        name, inner = item
        return self.segments[name].summarize(inner, output)

    def check(self, results, seed, references):
        problems = {}
        for name, seg in self.segments.items():
            problems.update(seg.check(
                [(i, inner, out) for i, (s, inner), out in results
                 if s == name], seed, references))
        return problems


WORKLOADS = {w.name: w for w in (Warm(), BuildCold())}

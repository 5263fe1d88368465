"""Verification suites: named invariants with machine-readable results.

Each suite runs against one system and returns a report whose entries
are either checks (pass/fail, with a counterexample payload on failure)
or informational records that never affect the exit status. Randomized
suites take an explicit seed and are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from . import algebra as alg
from . import automorphisms as auto
from . import morphisms as mor
from .coxeter import build_system, iter_bits, popcount
from .errors import UnknownSuite
from .linalg import Span

SUITES = (
    "solomon-oracle",
    "positivity",
    "morphisms",
    "loewy-bounds",
    "bhs-symmetry",
    "b-tau-question",
)

CHECK = "check"
REPORT = "report"


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    kind: str = CHECK
    counterexample: dict | None = None

    def to_dict(self):
        out = {"name": self.name, "kind": self.kind,
               "passed": self.passed, "detail": self.detail}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class SuiteReport:
    suite: str
    type_label: str
    results: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.results if r.kind == CHECK)

    def to_dict(self):
        return {"suite": self.suite, "type": self.type_label,
                "passed": self.passed,
                "results": [r.to_dict() for r in self.results]}

    def render_text(self):
        lines = []
        for r in self.results:
            if r.kind == REPORT:
                tag = "INFO"
            else:
                tag = "PASS" if r.passed else "FAIL"
            lines.append("%s %s: %s" % (tag, r.name, r.detail))
            if r.counterexample:
                lines.append("     counterexample: %r" % (r.counterexample,))
        lines.append("suite %s on %s: %s" % (
            self.suite, self.type_label,
            "all checks passed" if self.passed else "FAILURES"))
        return "\n".join(lines)


def _check(report, name, passed, detail, counterexample=None):
    report.results.append(SuiteResult(name, bool(passed), detail,
                                      CHECK, counterexample))


def _info(report, name, detail):
    report.results.append(SuiteResult(name, True, detail, REPORT))


def _first_failure(outcomes):
    """Walk lazily computed outcomes, each None for a case that holds and
    a counterexample payload for one that fails, up to the first failure.
    Returns how many cases were walked and that payload, or None."""
    count = 0
    for bad in outcomes:
        count += 1
        if bad is not None:
            return count, bad
    return count, None


def _mask_name(system, mask):
    return "{" + ",".join(system.labels[p] for p in iter_bits(mask)) + "}"


def _partitions(k):
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


# ---------------------------------------------------------------------------
# suites


def _suite_solomon_oracle(system, report, seed):
    size = 1 << system.rank
    basis = [alg.basis_x(system, i) for i in range(size)]
    slow = alg.oracle_multiply(basis, basis)
    eye = np.eye(size, dtype=np.int64)
    fast = alg.products(system, eye, eye)

    def mismatch(i, j):
        tensor = alg.DescentVector.from_ints(system, fast[i, j].tolist())
        if tensor != slow[i][j]:
            return {"left": str(basis[i]), "right": str(basis[j]),
                    "tensor_route": str(tensor),
                    "group_route": str(slow[i][j])}
        return None

    count, bad = _first_failure(mismatch(i, j)
                                for i in range(size) for j in range(size))
    _check(report, "product-matches-group-algebra", bad is None,
           "%d ordered basis pairs checked" % count, bad)


def _random_positive(system, rng):
    size = 1 << system.rank
    coeffs = [rng.randrange(10) for _ in range(size)]
    if not any(coeffs):
        coeffs[size - 1] = 1
    return alg.DescentVector.from_ints(system, coeffs)


def _subset_pairs(size):
    """Index arrays (inner, outer) of the pairs J, K of subset masks with J
    a proper subset of K: K increasing, and J from K - 1 down through the
    subsets of K."""
    pairs = []
    for kmask in range(size):
        jmask = kmask
        while jmask:
            jmask = (jmask - 1) & kmask
            pairs.append((jmask, kmask))
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def _splits_into_distinct_roots(poly, nums, den):
    """Whether the polynomial ``poly`` (low to high, nonzero leading
    coefficient) has as many distinct roots as its degree, namely the
    values num / den: then it is their product up to a unit, so it is
    squarefree. A root n / m is checked in integers, by Horner's rule on
    m^d p(n / m) with the coefficients scaled to integers."""
    roots = {Fraction(v, den) for v in nums}
    if len(poly) != len(roots) + 1:
        return False
    scale = lcm(*(c.denominator for c in poly))
    coeffs = [int(c * scale) for c in reversed(poly)]
    for r in roots:
        acc, power = 0, 1
        for c in coeffs:
            acc = acc * r.numerator + c * power
            power *= r.denominator
        if acc:
            return False
    return True


def _suite_positivity(system, report, seed):
    rng = random.Random("positivity:%d:%s" % (seed, system.type_label))
    size = 1 << system.rank
    count = 100
    elements = [_random_positive(system, rng) for _ in range(count)]
    squares = [alg.multiply(a, a) for a in elements]
    both = elements + squares
    right = alg.right_ideal(both)
    left = alg.left_ideal(both)
    central = alg.centralizer_dimension(both)
    families = [alg.family_span(system, alg.saturated_family(a))
                for a in elements]
    # one row per element, over its positive denominator, so comparing
    # numerators compares the character values
    values, dens = alg.character_values(elements)
    outcomes = {
        "minimal-polynomial-squarefree":
            map(_splits_into_distinct_roots,
                alg.minimal_polynomial(elements), values.tolist(), dens),
        "square-right-ideal-stable":
            (right[count + i].equals(right[i]) for i in range(count)),
        "square-left-ideal-stable":
            (left[count + i].equals(left[i]) for i in range(count)),
        "square-centralizer-stable":
            (central[count + i] == central[i] for i in range(count)),
        "right-ideal-is-saturated-span":
            (right[i].equals(families[i]) for i in range(count)),
    }
    for name, holds in outcomes.items():
        bad = _first_failure(None if ok else {"element": str(a)}
                             for a, ok in zip(elements, holds))[1]
        _check(report, name, bad is None,
               "%d seeded positive elements" % count, bad)

    inner, outer = _subset_pairs(size)
    by_mask = values[:, system.shape_classes()[1]]
    # row-major: the first element with a rise, then its first pair
    rises = np.argwhere(by_mask[:, outer] > by_mask[:, inner])
    bad = None
    if len(rises):
        b, p = rises[0]
        bad = {"element": str(elements[b]),
               "inner": _mask_name(system, int(inner[p])),
               "outer": _mask_name(system, int(outer[p]))}
    _check(report, "tau-antitone-in-subsets", bad is None,
           "%d seeded positive elements" % count, bad)


# the subsets (as sorted label strings) with a surjective restriction
_FROZEN_SURJECTIVE_LABELS = {
    "F4": frozenset({"1234", "123", "234", "13", "14", "23", "24",
                     "1", "2", "3", "4", ""}),
    "H4": frozenset({"1234", "123", "1", "2", "3", "4", ""}),
}


def _label_key(system, mask):
    return "".join(sorted(system.labels[p] for p in iter_bits(mask)))


def _suite_morphisms(system, report, seed):
    rng = random.Random("morphisms:%d:%s" % (seed, system.type_label))
    size = 1 << system.rank
    all_masks = range(size)
    morphisms = [mor.res_K(system, K) for K in all_masks]

    def every_subset(check):
        return _first_failure(
            None if check(m) else {"K": _mask_name(system, K)}
            for K, m in enumerate(morphisms))[1]

    bad = every_subset(mor.bbht_a_check)
    _check(report, "restriction-factorization", bad is None,
           "%d subsets" % size, bad)

    def sampled_pairs(count):
        if system.rank <= 3:
            return [(i, j) for i in all_masks for j in all_masks]
        return [(rng.randrange(size), rng.randrange(size))
                for _ in range(count)]

    def restriction_pairs():
        for K, m in enumerate(morphisms):
            ok = m.multiplicative_pairs()
            # drawn only once the earlier subsets passed, as the later
            # checks go on from the same generator
            for i, j in sampled_pairs(50):
                yield None if ok[i, j] else {"K": _mask_name(system, K),
                                             "left": _mask_name(system, i),
                                             "right": _mask_name(system, j)}

    pair_count, bad = _first_failure(restriction_pairs())
    _check(report, "restriction-multiplicative", bad is None,
           "%d (K, pair) combinations" % pair_count, bad)

    nested = [(K, L) for L in all_masks for K in all_masks if not K & ~L]

    def transitive(K, L):
        mL = morphisms[L]
        inner = mor.res_K(mL.codomain,
                          mor.project_mask(K, mor.mask_positions(L)))
        return mor.compose(inner, mL).equal_matrix(morphisms[K])

    bad = _first_failure(
        None if transitive(K, L) else {"K": _mask_name(system, K),
                                       "L": _mask_name(system, L)}
        for K, L in nested)[1]
    _check(report, "restriction-transitive", bad is None,
           "%d nested subset pairs" % len(nested), bad)

    count, bad = _first_failure(
        None if mor.res_conjugate_check(morphisms[shape.members[0]],
                                        morphisms[other])
        else {"K": _mask_name(system, shape.members[0]),
              "K'": _mask_name(system, other)}
        for shape in system.shapes() for other in shape.members[1:])
    _check(report, "restriction-conjugate-compatible", bad is None,
           "%d conjugate subset pairs" % count, bad)

    for name, check in (
            ("restriction-character-factorization", mor.res_tau_check),
            ("kernel-ideal-decomposition", mor.decomposition_check),
            ("image-in-complement-fixed-points", mor.points_fixes_check)):
        bad = every_subset(check)
        _check(report, name, bad is None, "%d subsets" % size, bad)

    verdicts = [mor.surjectivity_report(m) for m in morphisms]
    for K, r in enumerate(verdicts):
        _info(report, "surjectivity[%s]" % _mask_name(system, K),
              "surjective=%s pi-injective=%s complement-trivial=%s"
              % (r["surjective"], r["pi_injective"],
                 r["complement_acts_trivially"]))

    expected = None
    frozen = _FROZEN_SURJECTIVE_LABELS.get(system.type_label)
    if frozen is not None:
        expected = {K: _label_key(system, K) in frozen for K in all_masks}
        rule = "frozen verdict list"
    elif (len(system.components) == 1 and system.components[0]
          in (("E", 6), ("E", 7), ("I", 6), ("H", 3))):
        expected = {K: popcount(K) in (0, 1, system.rank)
                    for K in all_masks}
        rule = "size rule |K| in {0, 1, |S|}"
    elif (len(system.components) == 1
          and system.type_label.startswith("A")):
        expected = {K: len(mor.parabolic_system(system, K).components) <= 1
                    for K in all_masks}
        rule = "connected-subset rule"
    if expected is not None:
        bad = _first_failure(
            None if verdicts[K]["surjective"] == expected[K]
            else {"K": _mask_name(system, K),
                  "computed": verdicts[K]["surjective"],
                  "expected": expected[K]}
            for K in all_masks)[1]
        _check(report, "surjectivity-verdicts", bad is None, rule, bad)

    comps = system.components
    if len(comps) == 1 and comps[0][0] == "B":
        n = system.rank
        m = mor.res_BD(system)
        _check(report, "fork-restriction-factorization",
               mor.res_bd_a_check(m), "group-algebra identity")
        pairs = sampled_pairs(60)
        ok = m.multiplicative_pairs()
        bad = _first_failure(
            None if ok[i, j] else {"left": _mask_name(m.domain, i),
                                   "right": _mask_name(m.domain, j)}
            for i, j in pairs)[1]
        _check(report, "fork-restriction-multiplicative", bad is None,
               "%d pairs" % len(pairs), bad)
        _check(report, "fork-restriction-image-is-swap-fixed",
               mor.res_bd_image_check(m), "exact span equality")
        if n >= 3:
            _check(report, "fork-restriction-square",
                   mor.res_bd_square_check(m),
                   "rank drop commutes on both sides")
        _check(report, "chain-restriction-triangular",
               mor.res_b_triangular_check(system),
               "positive diagonal, lower order terms only")
        swap_is_w0 = mor.sigma_n_automorphism(m.codomain).is_inner_by_w0
        _check(report, "fork-swap-parity", swap_is_w0 == (n % 2 == 1),
               "swap is the longest-element automorphism iff rank is odd")

    if len(comps) == 1 and comps[0][0] == "D" and system.rank >= 3:
        _check(report, "fork-chain-image-is-swap-fixed",
               mor.res_d_image_check(system),
               "exact span equality")

    # at rank 1 the full mask is the only singleton
    candidates = list(dict.fromkeys([0, system.full_mask] + [
        1 << p for p in range(system.rank)]))

    def quotient_failure(K):
        ctx = mor.build_context(system, K)
        pair = mor.goetz1_set_check(ctx)
        if pair is not None:
            return {"K": _mask_name(system, K),
                    "I": _mask_name(system, pair[0]),
                    "J": _mask_name(system, pair[1])}
        if not mor.varpi_tau_check(ctx):
            return {"K": _mask_name(system, K), "stage": "characters"}
        return None

    ran, bad = _first_failure(
        quotient_failure(K) for K in candidates
        if mor.is_self_opposed(system, K))
    _check(report, "quotient-morphism-identities", bad is None,
           "%d self-opposed subsets (empty, full, singletons)" % ran,
           bad)


def _suite_loewy_bounds(system, report, seed):
    n = system.rank
    profile = alg.loewy_profile(system)
    ll = profile.loewy_length
    irreducible = len(system.components) == 1
    if irreducible:
        _check(report, "loewy-length-bounds",
               (n + 1) // 2 <= ll <= n,
               "computed LL = %d, bounds [%d, %d]"
               % (ll, (n + 1) // 2, n))
    else:
        _check(report, "loewy-length-upper-bound", ll <= n,
               "computed LL = %d <= %d" % (ll, n))
        _info(report, "loewy-length-lower-bound",
              "halved lower bound applies to irreducible systems only; "
              "computed LL = %d" % ll)

    d1 = profile.dims[1] if len(profile.dims) > 1 else 0
    _check(report, "shape-count-identity",
           len(system.shapes()) == profile.dims[0] - d1,
           "shape classes = %d, d0 - d1 = %d"
           % (len(system.shapes()), profile.dims[0] - d1))

    for sigma in auto.diagram_automorphisms(system):
        if sigma.is_identity():
            continue
        fixed_profile = auto.loewy_profile_fixed(system, sigma)
        fd1 = fixed_profile.dims[1] if len(fixed_profile.dims) > 1 else 0
        orbits = len(auto.shape_orbits(system, sigma))
        _check(report, "shape-orbit-identity[order %d]" % sigma.order,
               orbits == fixed_profile.dims[0] - fd1,
               "orbits = %d, d0 - d1 = %d"
               % (orbits, fixed_profile.dims[0] - fd1))

    comps = system.components
    if len(comps) == 1 and comps[0][0] == "B" and n >= 2:
        _check(report, "doubled-bond-loewy-exact", ll == (n + 1) // 2,
               "computed LL = %d, expected %d" % (ll, (n + 1) // 2))
    if len(comps) == 1 and comps[0][0] == "D":
        if n % 2 == 0:
            _check(report, "fork-loewy-exact", ll == (n + 1) // 2,
                   "computed LL = %d, expected %d" % (ll, (n + 1) // 2))
        else:
            low = (n + 3) // 2
            _check(report, "fork-loewy-lower", ll >= low,
                   "computed LL = %d >= %d" % (ll, low))
            _info(report, "fork-loewy-equality",
                  "computed LL = %d; equality with (rank+3)/2 %s"
                  % (ll, "holds" if ll == low else "fails"))

    if irreducible and n >= 1:
        s0 = auto.sigma0(system)
        fixed_ll = auto.loewy_profile_fixed(system, s0).loewy_length
        _check(report, "fixed-loewy-halved", fixed_ll == (n + 1) // 2,
               "LL of the longest-element-fixed subalgebra = %d, "
               "expected %d" % (fixed_ll, (n + 1) // 2))

    if irreducible and system.type_label.startswith("A"):
        shape_count = len(system.shapes())
        _info(report, "shape-count-partition-note",
              "shape classes = %d = p(%d), the partition count of "
              "rank+1 (p(%d) = %d does not match)"
              % (shape_count, n + 1, n, _partitions(n)))


def _suite_bhs(system, report, seed):
    pairing = alg.bhs_pairing(system)
    size = 1 << system.rank
    bad = _first_failure(
        None if pairing[i][j] == pairing[j][i]
        else {"I": _mask_name(system, i), "J": _mask_name(system, j),
              "values": [int(pairing[i][j]), int(pairing[j][i])]}
        for i in range(size) for j in range(size))[1]
    _check(report, "character-pairing-symmetric", bad is None,
           "%d ordered pairs" % (size * size), bad)


def _suite_b_tau(system, report, seed):
    comps = system.components
    n = system.rank
    if not (len(comps) == 1 and comps[0][0] == "B" and n % 2 == 1
            and n >= 3):
        _info(report, "not-applicable",
              "the question is posed for the odd-rank doubled-bond "
              "family; %s is outside it" % system.type_label)
        return
    r = (n - 1) // 2
    powers = alg.radical_powers(system, alg.radical_basis(system))
    span = powers[r - 1] if r <= len(powers) else Span(1 << n)
    _, t_list = alg.witness_elements_typeB(system)
    witness = t_list[r - 1]
    equals_line = (span.dim == 1 and not witness.is_zero()
                   and span.contains(witness.x_ints()[0]))
    _info(report, "radical-power-dimension",
          "dim of radical power %d is %d" % (r, span.dim))
    _info(report, "radical-power-is-line",
          "dimension equals 1: %s" % (span.dim == 1))
    _info(report, "radical-power-equals-witness-line",
          "equality with the witness line: %s" % equals_line)


_SUITE_FUNCS = {
    "solomon-oracle": _suite_solomon_oracle,
    "positivity": _suite_positivity,
    "morphisms": _suite_morphisms,
    "loewy-bounds": _suite_loewy_bounds,
    "bhs-symmetry": _suite_bhs,
    "b-tau-question": _suite_b_tau,
}


def run_suite(suite, type_label, seed=0, allow_rank7=False, cache=True):
    func = _SUITE_FUNCS.get(suite)
    if func is None:
        raise UnknownSuite(
            "unknown suite %r; choose from %s" % (suite, ", ".join(SUITES)))
    system = build_system(type=type_label, allow_rank7=allow_rank7,
                          cache=cache)
    report = SuiteReport(suite=suite, type_label=system.type_label)
    func(system, report, seed)
    return report

"""Verification suites: named invariants with machine-readable results.

Each suite runs against one system and returns a report whose entries
are either checks (pass/fail, with a counterexample payload on failure)
or informational records that never affect the exit status. Randomized
suites take an explicit seed and are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import algebra as alg
from . import automorphisms as auto
from . import morphisms as mor
from .coxeter import build_system, iter_bits, popcount
from .errors import UnknownSuite
from .linalg import Span, poly_is_squarefree

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
    basis = [alg.basis_x(system, i) for i in range(1 << system.rank)]

    def mismatch(vi, vj):
        fast = alg.multiply(vi, vj)
        slow = alg.oracle_multiply(vi, vj)
        if fast != slow:
            return {"left": str(vi), "right": str(vj),
                    "tensor_route": str(fast), "group_route": str(slow)}
        return None

    count, bad = _first_failure(mismatch(vi, vj)
                                for vi in basis for vj in basis)
    _check(report, "product-matches-group-algebra", bad is None,
           "%d ordered basis pairs checked" % count, bad)


def _random_positive(system, rng):
    size = 1 << system.rank
    coeffs = [rng.randrange(10) for _ in range(size)]
    if not any(coeffs):
        coeffs[size - 1] = 1
    return alg.DescentVector.from_ints(system, coeffs)


def _subset_pairs(size):
    for kmask in range(size):
        jmask = kmask
        while True:
            jmask = (jmask - 1) & kmask
            if jmask == kmask:
                break
            yield jmask, kmask
            if jmask == 0:
                break


def _suite_positivity(system, report, seed):
    rng = random.Random("positivity:%d:%s" % (seed, system.type_label))
    size = 1 << system.rank
    count = 100
    elements = [_random_positive(system, rng) for _ in range(count)]
    squares = [alg.multiply(a, a) for a in elements]
    checks = {
        "minimal-polynomial-squarefree":
            lambda a, a2: poly_is_squarefree(alg.minimal_polynomial(a)),
        "square-right-ideal-stable":
            lambda a, a2: alg.right_ideal(a2).equals(alg.right_ideal(a)),
        "square-left-ideal-stable":
            lambda a, a2: alg.left_ideal(a2).equals(alg.left_ideal(a)),
        "square-centralizer-stable":
            lambda a, a2: (alg.centralizer_dimension(a2)
                           == alg.centralizer_dimension(a)),
        "right-ideal-is-saturated-span":
            lambda a, a2: alg.right_ideal(a).equals(alg.family_span(
                system, alg.saturated_family(a, equivariant=True))),
    }
    for name, holds in checks.items():
        bad = _first_failure(None if holds(a, a2) else {"element": str(a)}
                             for a, a2 in zip(elements, squares))[1]
        _check(report, name, bad is None,
               "%d seeded positive elements" % count, bad)

    def tau_rise(a):
        tv = alg.tau(a).values
        shape = system.shape_id_of_mask
        return _first_failure(
            None if tv[shape(kmask)] <= tv[shape(jmask)]
            else {"element": str(a),
                  "inner": _mask_name(system, jmask),
                  "outer": _mask_name(system, kmask)}
            for jmask, kmask in _subset_pairs(size))[1]

    bad = _first_failure(tau_rise(a) for a in elements)[1]
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

    group_level = system.rank <= 4
    bad = every_subset(mor.bbht_a_check if group_level
                       else mor.res_linear_check)
    _check(report, "restriction-factorization", bad is None,
           "%d subsets%s" % (size,
                             "" if group_level else " (linear level)"),
           bad)

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

    if system.rank <= 4:
        nested = [(K, L) for L in all_masks for K in all_masks
                  if not K & ~L]
    else:
        nested = []
        while len(nested) < 40:
            L = rng.randrange(size)
            K = rng.randrange(size) & L
            nested.append((K, L))

    def transitive(K, L):
        mL = morphisms[L]
        inner = mor.res_K(mL.codomain,
                          mor.project_mask(K, mL.metadata["positions"]))
        two_step = mor.compose(inner, mL)
        one_step = morphisms[K]
        perm = mor.align_positions(two_step.codomain, one_step.codomain)
        return two_step.equal_matrix(one_step, codomain_perm=perm)

    bad = _first_failure(
        None if transitive(K, L) else {"K": _mask_name(system, K),
                                       "L": _mask_name(system, L)}
        for K, L in nested)[1]
    _check(report, "restriction-transitive", bad is None,
           "%d nested subset pairs" % len(nested), bad)

    count, bad = _first_failure(
        None if mor.res_conjugate_check(system, shape.members[0], other)
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

    verdicts = [mor.surjectivity_report(system, K) for K in all_masks]
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
        m = mor.res_BD(n)
        _check(report, "fork-restriction-factorization",
               mor.res_bd_a_check(n, m), "group-algebra identity")
        pairs = sampled_pairs(60)
        ok = m.multiplicative_pairs()
        bad = _first_failure(
            None if ok[i, j] else {"left": _mask_name(m.domain, i),
                                   "right": _mask_name(m.domain, j)}
            for i, j in pairs)[1]
        _check(report, "fork-restriction-multiplicative", bad is None,
               "%d pairs" % len(pairs), bad)
        _check(report, "fork-restriction-image-is-swap-fixed",
               mor.res_bd_image_check(n, m), "exact span equality")
        if n >= 3:
            _check(report, "fork-restriction-square",
                   mor.res_bd_square_check(n),
                   "rank drop commutes on both sides")
        _check(report, "chain-restriction-triangular",
               mor.res_b_triangular_check(n),
               "positive diagonal, lower order terms only")
        swap_is_w0 = mor.sigma_n_automorphism(mor.fork_system(n)
                                              ).is_inner_by_w0
        _check(report, "fork-swap-parity", swap_is_w0 == (n % 2 == 1),
               "swap is the longest-element automorphism iff rank is odd")

    if len(comps) == 1 and comps[0][0] == "D":
        _check(report, "fork-chain-image-is-swap-fixed",
               mor.res_d_image_check(system.rank),
               "exact span equality")

    if system.rank <= 4:
        candidates = [0, system.full_mask] + [
            1 << p for p in range(system.rank)]

        def quotient_failure(K):
            ctx = mor.build_context(system, K)
            above = [i for i in all_masks if i & K == K]
            bad = _first_failure(
                None if mor.goetz1_set_check(system, ctx, i, j)
                else {"K": _mask_name(system, K),
                      "I": _mask_name(system, i),
                      "J": _mask_name(system, j)}
                for i in above for j in above)[1]
            if bad is None and not mor.varpi_tau_check(system, ctx):
                bad = {"K": _mask_name(system, K), "stage": "characters"}
            return bad

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
    rad = alg.x_matrix(alg.radical_basis(system), 1 << n)
    powers = alg.radical_powers(system, rad)
    span = powers[r - 1] if r <= len(powers) else Span(1 << n)
    _, t_list = alg.witness_elements_typeB(system)
    witness = t_list[r - 1]
    equals_line = (span.dim == 1 and not witness.is_zero()
                   and span.contains(witness.x_coords()))
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

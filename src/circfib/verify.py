"""Verification suites for every quantitative claim, aggregated into reports.

Each criterion function returns a list of claims with status ``pass``,
``fail``, or ``discrepancy``.  A discrepancy records a documented, stable
deviation between a computed set and its stated closed form (with both
values in the detail); discrepancies are always printed but do not fail a
run.  ``run_verify`` drives all suites at the requested bounds; its exit
status is nonzero iff some claim failed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm
from typing import Callable

from . import baseb, group, orderq, typology, wheels
from .errors import CircfibError, StructureMismatchError
from .fibcore import (
    alternating_word,
    check_balanced,
    fibonacci_word_prefix,
    is_admissible,
    iter_words_binary,
    rotate,
    valuation,
)
from .rewrite import normalize, orbit

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"

KNOWN_CARDINALITIES = (1, 5, 16, 45, 121, 320)


@dataclass(frozen=True)
class Claim:
    criterion: str
    subject: str
    status: str
    detail: str


@dataclass
class VerificationReport:
    suite: str
    claims: list[Claim] = field(default_factory=list)

    @property
    def failures(self) -> list[Claim]:
        return [c for c in self.claims if c.status == FAIL]

    @property
    def discrepancies(self) -> list[Claim]:
        return [c for c in self.claims if c.status == DISCREPANCY]

    @property
    def ok(self) -> bool:
        return not self.failures

    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _claim(criterion: str, subject: str, ok: bool, detail: str = "") -> Claim:
    return Claim(criterion, subject, PASS if ok else FAIL, detail)


def criterion_cardinalities(max_ell: int = 6) -> list[Claim]:
    """Group orders for the first parameters equal 1, 5, 16, 45, 121, 320."""
    claims = []
    for ell in range(1, min(6, max_ell) + 1):
        expected = KNOWN_CARDINALITIES[ell - 1]
        got = len(group.enumerate_elements(ell))
        claims.append(
            _claim("1", f"order ell={ell}", got == expected, f"computed {got}, expected {expected}")
        )
    return claims


def criterion_structure(max_ell: int = 7, d_fn: Callable[[int], int] | None = None) -> list[Claim]:
    """Certified invariant factors match the d-formula predictions."""
    d_fn = d_fn or group.d_value
    claims = []
    for ell in range(2, min(7, max_ell) + 1):
        expected = group.factor_shape(ell, d_fn(ell))
        try:
            got = group.certify_factors(group.enumerate_elements(ell))
            ok = got == expected
            detail = f"certified {got}, predicted {expected}"
        except CircfibError as exc:
            ok, detail = False, str(exc)
        claims.append(_claim("2", f"structure ell={ell}", ok, detail))
    return claims


def uniqueness_scan(n: int) -> tuple[int, int, bool]:
    """Partition nonzero {0,1,2}-words of length n into move components.

    Returns (component count, identity-pair component count, all_ok) where
    all_ok requires every component to hold exactly one admissible word
    (two alternating ones for the identity component) and ``normalize`` to
    return it for every member.
    """
    assigned: set = set()
    components = identity_components = 0
    ok = True
    id0, id1 = alternating_word(n, 0), alternating_word(n, 1)
    for w in itertools.product((0, 1, 2), repeat=n):
        if not any(w) or w in assigned:
            continue
        components += 1
        result = orbit(w, 3, 10**6)
        if result.truncated:
            return components, identity_components, False
        members = [x for x in result.words if max(x) <= 2]
        assigned.update(members)
        admissible = result.admissible_members()
        if admissible == {id0, id1}:
            identity_components += 1
            target = id0
        elif len(admissible) == 1:
            target = next(iter(admissible))
        else:
            return components, identity_components, False
        if any(normalize(x) != target for x in members):
            ok = False
    return components, identity_components, ok


def criterion_uniqueness(max_ell: int = 4) -> list[Claim]:
    """Exactly one normal form per class over {0,1,2}-words, lengths 4, 6, 8."""
    claims = []
    for n in (4, 6, 8):
        if n > 2 * max_ell:
            continue
        components, identity_components, ok = uniqueness_scan(n)
        claims.append(
            _claim(
                "3",
                f"normal-form uniqueness n={n}",
                ok and identity_components == 1,
                f"{components} components, {identity_components} identity component(s)",
            )
        )
    return claims


def criterion_group_axioms(max_ell: int = 6) -> list[Claim]:
    """Exhaustive group laws at small parameters; inverses up to ell = 6.

    The laws are read off one Cayley table per parameter, built by
    ``group.add`` over all pairs of elements.
    """
    claims = []
    for ell in range(1, min(4, max_ell) + 1):
        elements = group.enumerate_elements(ell)
        ident = group.identity(ell)
        index = {u: i for i, u in enumerate(elements)}
        # the Cayley table: every sum of two elements, computed once
        table = [[group.add(u, v) for v in elements] for u in elements]

        def plus(s, t):
            i, j = index.get(s), index.get(t)
            if i is None or j is None:  # a sum outside the elements
                return group.add(s, t)
            return table[i][j]

        comm = all(
            plus(u, v) == plus(v, u) for u, v in itertools.combinations(elements, 2)
        )
        ident_law = all(plus(u, ident) == u for u in elements)
        closed = all(s in index for row in table for s in row)
        assoc = all(
            plus(plus(u, v), t) == plus(u, plus(v, t))
            for u, v, t in itertools.product(elements, repeat=3)
        )
        ok = comm and ident_law and closed and assoc
        claims.append(
            _claim(
                "4",
                f"group axioms ell={ell}",
                ok,
                f"assoc={assoc} comm={comm} identity={ident_law} closed={closed}",
            )
        )
    for ell in range(1, min(6, max_ell) + 1):
        ident = group.identity(ell)
        ok = all(
            group.add(u, group.neg(u)) == ident for u in group.enumerate_elements(ell)
        )
        claims.append(_claim("4", f"negation inverses ell={ell}", ok))
    return claims


def criterion_order_q(max_q: int = 10) -> list[Claim]:
    """Canonical length formula, its d-divisibility cross-check, and the
    multiples of the distinguished pair, for q = 2..max_q."""
    claims = []
    for q in range(2, max_q + 1):
        n = orderq.minimal_even_length(q)
        ell = 1
        while group.d_value(ell) % q != 0:
            ell += 1
        claims.append(
            _claim(
                "5",
                f"minimal length q={q}",
                n == 2 * ell,
                f"formula {n}, d-divisibility cross-check {2 * ell}",
            )
        )
        pi, pi_prime = orderq.pi_words(q)
        claims.append(_claim("5", f"rotation q={q}", rotate(pi_prime) == pi))
        chain_ok = orderq.multiples_match(pi, q) and orderq.multiples_match(pi_prime, q)
        ident_ok = group.scalar_mul(q, pi) == group.identity(n // 2)
        claims.append(_claim("5", f"multiples q={q}", chain_ok and ident_ok))
    return claims


def criterion_p_group(max_q: int = 6, max_ell: int = 12) -> list[Claim]:
    """Order q^2, exponent q, two-generator certificate; mixed-length sums."""
    claims = []
    for q in range(2, min(6, max_q) + 1):
        elements = [e.word for e in orderq.p_group(q, max_ell)]
        try:
            exponent, _ = group.certify_factors(elements)
            certificate = f"exponent {exponent}, certified=True"
            ok = len(elements) == q * q and exponent == q
        except StructureMismatchError as exc:
            certificate, ok = f"certified=False: {exc}", False
        claims.append(
            _claim(
                "6",
                f"order-q group q={q}",
                ok,
                f"size {len(elements)} (want {q * q}), {certificate}",
            )
        )
        index = orderq.pi_subgroup_index(q, max_ell)
        claims.append(
            _claim(
                "6",
                f"distinguished pair span q={q}",
                True,  # reported, not asserted
                f"subgroup index {index}",
            )
        )
    # mixed-length identity law: u oplus (01) == u, exhaustively for small parameters
    for ell in (1, 2, 3):
        id1 = group.identity(1)
        ok = all(orderq.oplus(u, id1) == u for u in group.enumerate_elements(ell))
        claims.append(_claim("6", f"mixed-length identity ell={ell}", ok))
    sampled = [
        ((0, 0, 0, 1), (0, 1, 0, 0, 1, 0)),
        ((0, 1, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)),
        ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1)),
    ]
    ok = True
    for u, v in sampled:
        s = orderq.oplus(u, v)
        if len(s) != lcm(len(u), len(v)) or not is_admissible(s):
            ok = False
    claims.append(_claim("6", "mixed-length closure sampled", ok))
    return claims


def criterion_gcd(max_index: int = 30) -> list[Claim]:
    """gcd compatibility of the d-sequence and the morphism checks."""
    report = group.gcd_property_report(max_index)
    claims = [
        _claim(
            "7",
            f"gcd property m,n<={max_index}",
            all(c.ok for c in report.pair_checks),
            f"{len(report.pair_checks)} pairs",
        ),
        _claim(
            "7",
            "even-index d equals classical fib",
            all(c.ok for c in report.even_index_checks),
            f"{len(report.even_index_checks)} indices",
        ),
    ]
    pairs_ok = True
    for ell, reps in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        elements = group.enumerate_elements(ell)
        images = {group.repeat_morphism(u, reps) for u in elements}
        injective = len(images) == len(elements)
        homomorphic = all(
            group.repeat_morphism(group.add(u, v), reps)
            == group.add(group.repeat_morphism(u, reps), group.repeat_morphism(v, reps))
            for u, v in itertools.product(elements, repeat=2)
        )
        pairs_ok = pairs_ok and injective and homomorphic
    claims.append(_claim("7", "repetition morphism pairs", pairs_ok))
    return claims


def criterion_types(max_ell: int = 7) -> list[Claim]:
    """Partition totality, rotation relation, and image-set comparisons."""
    claims = []
    totality_ok = True
    structural_ok = True
    for ell in range(2, min(7, max_ell) + 1):
        ident = group.identity(ell)
        for u in group.enumerate_elements(ell):
            try:
                tag = typology.classify(u)
            except CircfibError:
                totality_ok = False
                continue
            if u != ident and typology.structural_class(u) != tag:
                structural_ok = False
    claims.append(_claim("8", f"classify total ell<={min(7, max_ell)}", totality_ok))
    claims.append(_claim("8", "structural rule agrees with classify", structural_ok))
    sigma_ok = all(typology.sigma_relation_check(ell) for ell in range(1, min(7, max_ell) + 1))
    claims.append(_claim("8", "rotation maps T10 onto T01", sigma_ok))
    for ell in range(2, min(6, max_ell) + 1):
        sets = typology.image_sets(ell)
        t10 = sets[typology.T10]
        claims.append(
            _claim("8", f"T10 image set ell={ell}", t10.exact, f"offset {t10.offset}")
        )
        for tag in (typology.T01, typology.T11):
            cmp = sets[tag]
            both = f"computed {_set_preview(cmp.computed)}, formula {_set_preview(cmp.formula)}"
            if cmp.offset is None:
                claims.append(
                    Claim("8", f"{tag} image set ell={ell}", FAIL, f"no constant offset fits; {both}")
                )
            elif cmp.offset == 0:
                claims.append(Claim("8", f"{tag} image set ell={ell}", PASS, "offset 0"))
            else:
                claims.append(
                    Claim(
                        "8",
                        f"{tag} image set ell={ell}",
                        DISCREPANCY,
                        f"constant offset {cmp.offset:+d}; {both}",
                    )
                )
    return claims


def _set_preview(values, limit: int = 8) -> str:
    items = sorted(values)
    if len(items) > limit:
        head = " ".join(map(str, items[:limit]))
        return f"{{{head} ... ({len(items)} values)}}"
    return "{" + " ".join(map(str, items)) + "}"


def criterion_partition(max_ell: int = 10) -> list[Claim]:
    """Constant block counts and the multiples chain of the distinguished word."""
    claims = []
    for ell in range(3, min(10, max_ell) + 1):
        try:
            blocks = typology.fib_partition(ell)
            counts = {(b.a_count, b.b_count) for b in blocks}
            ok = len(counts) == 1
            detail = f"{len(blocks)} blocks of length {len(blocks[0].block)}, counts {counts}"
        except CircfibError as exc:
            ok, detail = False, str(exc)
        claims.append(_claim("9", f"balanced partition ell={ell}", ok, detail))
    for ell in range(3, min(6, max_ell) + 1):
        q = group.d_value(ell)
        pi, _ = orderq.pi_words(q)
        base = valuation(pi)
        values = [valuation(group.scalar_mul(i, pi)) for i in range(1, q + 1)]
        increments_ok = values[0] == base and all(
            values[i] - values[i - 1] == base for i in range(1, q)
        )
        claims.append(_claim("9", f"multiples increment ell={ell} q={q}", increments_ok))
    return claims


def criterion_wheels(max_ell: int = 8) -> list[Claim]:
    """Tree counts by two routes, taxonomy bijection, characterization, laws."""
    claims = []
    for ell in range(1, min(8, max_ell) + 1):
        backtracking = len(wheels.spanning_trees(ell))
        determinant = wheels.count_trees_matrix(ell)
        order = len(group.enumerate_elements(ell))
        claims.append(
            _claim(
                "10",
                f"tree counts ell={ell}",
                backtracking == determinant == order,
                f"backtracking {backtracking}, determinant {determinant}, group order {order}",
            )
        )
    bijective_ok = True
    characterization_ok = True
    for ell in range(1, min(6, max_ell) + 1):
        report = wheels.identity_fiber_report(ell)
        if not report.bijective or report.identity_fiber != 1:
            bijective_ok = False
        raw = {wheels.tree_to_word(t) for t in wheels.spanning_trees(ell)}
        even_blocks = {w for w in iter_words_binary(2 * ell) if wheels.is_tree_word(w)}
        if raw != even_blocks:
            characterization_ok = False
    claims.append(_claim("10", "taxonomy bijective ell<=6", bijective_ok))
    claims.append(_claim("10", "even-zero-block characterization ell<=6", characterization_ok))
    axioms_ok = True
    for ell in range(1, min(3, max_ell) + 1):
        trees = wheels.spanning_trees(ell)
        star = wheels.star_tree(ell)
        if not all(wheels.tree_add(t, star) == t for t in trees):
            axioms_ok = False
        if not all(
            wheels.tree_add(t1, t2) == wheels.tree_add(t2, t1)
            for t1, t2 in itertools.combinations(trees, 2)
        ):
            axioms_ok = False
        table = wheels.taxonomy_table(ell)
        inverse_ok = all(
            any(wheels.tree_add(t, s) == star for s in trees) for t in trees
        )
        axioms_ok = axioms_ok and inverse_ok and len(table) == len(trees)
    claims.append(_claim("10", "transported group laws ell<=3", axioms_ok))
    return claims


def criterion_base_b() -> list[Claim]:
    """The decimal multiples table and the exhaustive binary isomorphism."""
    claims = []
    report = baseb.verify_cyclic_group(10, 7)
    table = tuple(str(m) for m in report.multiples)
    expected = ("142857", "285714", "428571", "571428", "714285", "857142", "000000")
    claims.append(
        _claim("11", "decimal period 1/7 table", report.ok and table == expected, " ".join(table))
    )
    iso_ok = True
    for n in range(1, 5):
        mod = 2**n - 1
        words = [baseb.word_from_value(v, 2, n) for v in range(2**n - 1)]
        for u, v in itertools.product(words, repeat=2):
            s = baseb.circ_add_base_b(u, v)
            expected_value = (u.value() + v.value()) % mod
            if s.value() % mod != expected_value:
                iso_ok = False
            if all(d == 1 for d in s.digits):
                iso_ok = False  # the all-ones class must be canonicalized to zero
    claims.append(_claim("11", "binary value map is isomorphism n<=4", iso_ok))
    return claims


def criterion_balance() -> list[Claim]:
    """Factor balance of the length-10000 prefix for window sizes up to 50."""
    word = fibonacci_word_prefix(10000)
    ok = all(check_balanced(word, window) for window in range(1, 51))
    return [_claim("12", "balanced property windows 1..50", ok)]


def run_verify(
    max_ell: int = 6,
    max_q: int = 6,
    d_fn: Callable[[int], int] | None = None,
) -> VerificationReport:
    """Run every suite at bounds capped by max_ell and max_q."""
    if max_ell < 1 or max_q < 2:
        raise CircfibError("bounds must satisfy max_ell >= 1, max_q >= 2")
    report = VerificationReport(suite=f"verify max_ell={max_ell} max_q={max_q}")
    report.claims += criterion_cardinalities(max_ell)
    report.claims += criterion_structure(max_ell, d_fn)
    report.claims += criterion_uniqueness(max_ell)
    report.claims += criterion_group_axioms(max_ell)
    report.claims += criterion_order_q(max_q)
    report.claims += criterion_p_group(max_q)
    report.claims += criterion_gcd(30)
    report.claims += criterion_types(max_ell)
    report.claims += criterion_partition(max_ell)
    report.claims += criterion_wheels(max_ell)
    report.claims += criterion_base_b()
    report.claims += criterion_balance()
    return report

"""Verification suites for every quantitative claim, aggregated into reports.

Each criterion function returns a list of claims with status ``pass``,
``fail``, or ``discrepancy``.  A discrepancy records a documented, stable
deviation between a computed set and its stated closed form (with both
values in the detail); discrepancies are always printed but do not fail a
run.  ``run_verify`` drives all suites at the requested bounds; its exit
status is nonzero iff some claim failed.

The code that only the suites run lives here, so that importing the engine
compiles none of it: ``move_classes``, the partition by move class that
criterion 3 checks the normalizer against; ``certify_factors``, the
two-generator certificate of criteria 2 and 6; the invariant factors that
the d-formula predicts; criterion 7's repetition morphism; and criterion
8's valuation equations, the paper's definition of the types, against
which the shape rule of ``typology.classify`` is checked.
``move_classes`` partitions all {0,1,2}-words of a length at once: each
search grows a set of base-4 codes, held as an int bitset, in place by
sweeps of the rule A moves both ways at digit cap 3 until a sweep adds
nothing (at that cap a rule B move is a composition of two rule A moves, so
the classes are the same), with one search per rotation orbit of classes
and each rotation of a searched class recorded once.
"""

from __future__ import annotations

import itertools
from functools import reduce
from math import lcm
from operator import or_
from typing import NamedTuple

from . import baseb, group, orderq, typology, wheels
from .errors import CircfibError, InvalidWordError, ResourceBoundError, StructureMismatchError
from .fibcore import (
    Word,
    _balanced_windows,
    fib,
    fibonacci_word_prefix,
    is_admissible,
    iter_admissible,
    phi_pair,
    rotate,
)
from .rewrite import Move, _consume_produce, _refuse_odd, decode_pair, normalize, span_order

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"

KNOWN_CARDINALITIES = (1, 5, 16, 45, 121, 320)

# How deep each row that a bound drives goes: (criterion, row) -> (bound kind,
# first parameter, ceiling).  A row checks its first parameter up to the
# bound or its ceiling, whichever is lower; ``run_verify`` refuses a bound
# above the deepest ceiling of its kind.  Rows that no bound drives are
# fixed in their criterion: criterion 6's mixed-length rows, 7, 11 and 12.
DEPTHS = {
    ("1", "order"): ("ell", 1, 6),
    ("2", "structure"): ("ell", 2, 7),
    ("3", "normal-form uniqueness"): ("ell", 2, 4),  # at length n = 2 * ell
    ("4", "group axioms"): ("ell", 1, 4),
    ("4", "negation inverses"): ("ell", 1, 6),
    ("5", "minimal length"): ("q", 2, 100),
    ("6", "order-q group"): ("q", 2, 6),
    ("8", "classify total"): ("ell", 1, 7),
    ("8", "image set"): ("ell", 2, 6),
    ("9", "balanced partition"): ("ell", 3, 10),
    ("9", "multiples increment"): ("ell", 3, 6),
    ("10", "tree counts"): ("ell", 1, 8),
    ("10", "taxonomy bijective"): ("ell", 1, 6),
    ("10", "transported group laws"): ("ell", 1, 3),
}


def _depth(criterion: str, row: str, bound: int) -> range:
    """The parameters a row checks under a bound of its kind."""
    _, first, ceiling = DEPTHS[criterion, row]
    return range(first, min(bound, ceiling) + 1)


class Claim(NamedTuple):
    criterion: str
    subject: str
    status: str
    detail: str


class VerificationReport(NamedTuple):
    claims: list[Claim]

    @property
    def failures(self) -> list[Claim]:
        return [c for c in self.claims if c.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures


def _claim(criterion: str, subject: str, ok: bool, detail: str = "") -> Claim:
    return Claim(criterion, subject, PASS if ok else FAIL, detail)


def criterion_cardinalities(max_ell: int) -> list[Claim]:
    """Group orders for the first parameters equal 1, 5, 16, 45, 121, 320."""
    claims = []
    for ell in _depth("1", "order", max_ell):
        expected = KNOWN_CARDINALITIES[ell - 1]
        got = len(group.enumerate_elements(ell))
        claims.append(
            _claim("1", f"order ell={ell}", got == expected, f"computed {got}, expected {expected}")
        )
    return claims


def predicted_invariant_factors(ell: int) -> tuple[int, int]:
    """The invariant factors (e1, e2), e2 | e1, that the d-formula predicts
    for parameter l: (d, d) for odd l and (5d, d) for even l."""
    d = group.d_value(ell)
    return (5 * d, d) if ell % 2 == 0 else (d, d)


def certify_factors(elements: list[Word]) -> tuple[int, int]:
    """Invariant factors (e1, e2) of the group formed by the given elements,
    certified by exhibiting two generators.

    Finds g1 of maximal order e1 (the exponent) and, unless the group is
    cyclic, g2 of order e2 = order/e1 with <g1> + <g2> of the full order.
    That sum has e1 * e2 / |<g1> & <g2>| elements, so this is g2 meeting
    <g1> only in the identity.  Order d^2 with exponent d does not by itself
    force Z/d x Z/d, so the second generator is required; failure raises
    StructureMismatchError.  Callers pass elements the engine built, so
    each order is read off its pair with no second validation.
    """
    order = len(elements)
    orders = {u: span_order(len(u), phi_pair(u)) for u in elements}
    e1 = max(orders.values())
    if order % e1 != 0:
        raise StructureMismatchError(f"exponent {e1} does not divide order {order}")
    e2 = order // e1
    if e2 > 1:
        g1 = next(u for u, k in orders.items() if k == e1)
        n, pair1 = len(g1), phi_pair(g1)
        if not any(
            k == e2 and span_order(n, pair1, phi_pair(g2)) == order
            for g2, k in orders.items()
        ):
            raise StructureMismatchError(
                f"no second generator of order {e2} certifies rank 2 "
                f"for {order} elements of length {len(g1)}"
            )
    return e1, e2


def criterion_structure(max_ell: int) -> list[Claim]:
    """Two-generator certificates of the enumerated groups match the d-formula."""
    claims = []
    for ell in _depth("2", "structure", max_ell):
        predicted = predicted_invariant_factors(ell)
        try:
            got = certify_factors(group.enumerate_elements(ell))
            ok, detail = got == predicted, f"certified {got}, predicted {predicted}"
        except CircfibError as exc:
            ok, detail = False, str(exc)
        claims.append(_claim("2", f"structure ell={ell}", ok, detail))
    return claims


def move_classes(n: int) -> list[list[Word]]:
    """The nonzero length-n words with digits at most 2, grouped by move class.

    Two words share a class when moves connect them through words with
    digits at most 3, the digit cap at which ``rewrite.orbit`` explores the
    same classes.  Words are coded in base 4 with the first digit most
    significant, so code order is lexicographic order, and a set of codes
    is an int with bit c set for each code c in it.  Each search grows the
    set of one seed in place, by rounds of steps on the whole set: the
    forward rule A moves at positions 0..n-1, then their inverses at n-1..0.
    The search stops after a round that adds nothing, when the set is
    closed under every step, so it is the seed's class: each step only adds
    codes reachable by a move.  A backward move is the inverse of a forward
    one, and a rule B move within the cap is two rule A moves within the cap
    (see below), so these steps alone give the same connectivity.  Classes
    come in the lexicographic order of their first members, and members in
    lexicographic order.
    """
    cap = 3
    base = cap + 1
    places = [base ** (n - 1 - i) for i in range(n)]

    def box(ranges) -> int:
        # the set of codes whose digit at each slot lies in that slot's
        # range, built from the last slot (place 1) up so the set grows
        codes = 1
        for place, digits in reversed(list(zip(places, ranges))):
            codes = reduce(or_, [codes << d * place for d in digits])
        return codes

    # Rule B is not needed.  For n >= 4, where k-2, k-1, k and k+1 are
    # distinct, forward B at k (w[k] -= 2, w[k-2] += 1, w[k+1] += 1) equals
    # backward A at k-1 (w[k] -= 1, w[k-2] += 1, w[k-1] += 1) then forward
    # A at k (w[k-1] -= 1, w[k] -= 1, w[k+1] += 1), or the same two moves
    # in the other order.  The middle word differs from the start and end
    # words at k-1 only, by +1 in the first order and -1 in the second, so
    # it has digits in 0..3 in the first order when w[k-1] <= 2 and in the
    # second when w[k-1] >= 1.  At n = 2 the tests compare the partition
    # with the ``rewrite.orbit`` oracle instead.
    forward, backward = [], []  # (codes the step applies to, code shift)
    for k in range(n):
        eats, makes = map(dict, _consume_produce(Move("A", k), n))
        # A slot keeps at least what it loses and, after the move, at most
        # the cap; a slot that both loses and gains (short lengths) is
        # bounded by both.
        lose_gain = [(eats.get(i, 0), makes.get(i, 0)) for i in range(n)]
        mask = box(range(lose, min(base, base + lose - gain)) for lose, gain in lose_gain)
        delta = sum((gain - lose) * place for (lose, gain), place in zip(lose_gain, places))
        forward.append((mask, delta))
        backward.append((_shift(mask, delta), -delta))
    steps = forward + backward[::-1]
    small = box([range(cap)] * n)
    codes = _bits(small)
    # Rotating a class gives a class: the moves at k+1 are those at k with
    # the word rotated, and the cap holds digit by digit.  So one search
    # serves a whole rotation orbit of classes, and the class rotated j
    # slots is new exactly when the seed rotated j slots is not yet placed.
    classes, done = [], set()
    for seed in codes[1:]:  # codes[0] is the zero word
        if seed in done:
            continue
        seen = 1 << seed
        grown = True
        while grown:
            before = seen
            for mask, delta in steps:
                seen |= _shift(seen & mask, delta)
            grown = seen != before
        members = _bits(seen & small)
        for j in range(n):
            # rotating j slots, w -> w[j:] + w[:j], moves the first j digits last
            cut, lift = base ** (n - j), base ** j
            if seed % cut * lift + seed // cut not in done:
                rotated = sorted(c % cut * lift + c // cut for c in members)
                done.update(rotated)
                classes.append(rotated)
    word_of = dict(zip(codes, itertools.product(range(cap), repeat=n)))
    return [[word_of[c] for c in members] for members in sorted(classes)]


def _shift(codes: int, delta: int) -> int:
    """The set of codes each moved by delta."""
    return codes << delta if delta >= 0 else codes >> -delta


def _bits(codes: int) -> list[int]:
    """The codes in a set, in increasing order."""
    text = bin(codes)[:1:-1]  # text[c] is bit c
    out = []
    c = text.find("1")
    while c >= 0:
        out.append(c)
        c = text.find("1", c + 1)
    return out


def uniqueness_scan(n: int) -> tuple[int, int, bool]:
    """Partition nonzero {0,1,2}-words of length n into move components.

    The components are ``move_classes(n)``: searches that sweep
    the rule A moves at digit cap 3 to a fixpoint.  Returns (component count,
    identity-pair component count, all_ok) where all_ok requires every
    component to hold exactly one admissible word (two alternating ones for
    the identity component) and ``normalize`` to return it for every
    member.
    """
    components = identity_components = 0
    ok = True
    ident = group.identity(n // 2)
    _refuse_odd(n)  # before the search
    identity_pair = {ident, rotate(ident)}
    words = set(iter_admissible(n))
    for members in move_classes(n):
        components += 1
        admissible = words.intersection(members)
        if admissible == identity_pair:
            identity_components += 1
            target = ident
        elif len(admissible) == 1:
            (target,) = admissible
        else:
            return components, identity_components, False
        if any(map(target.__ne__, map(normalize, members))):
            ok = False
    return components, identity_components, ok


def criterion_uniqueness(max_ell: int) -> list[Claim]:
    """Exactly one normal form per class over {0,1,2}-words of length 2 * ell."""
    claims = []
    for ell in _depth("3", "normal-form uniqueness", max_ell):
        n = 2 * ell
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


def criterion_group_axioms(max_ell: int) -> list[Claim]:
    """Exhaustive group laws at small parameters; inverses at more of them.

    The laws are read off one Cayley table per parameter, built by
    ``group.add`` over all pairs of elements.  Closure, commutativity and
    the identity law compare its words.  When it is closed, associativity
    is checked on its integer form, whose entry (i, j) is the index of the
    i-th element plus the j-th: row (u + v) of that table must equal row v
    read through row u, which is (u + v) + t == u + (v + t) for every t.
    """
    claims = []
    for ell in _depth("4", "group axioms", max_ell):
        elements = group.enumerate_elements(ell)
        ident = group.identity(ell)
        index = {u: i for i, u in enumerate(elements)}
        # the Cayley table: every sum of two elements, computed once
        table = [[group.add(u, v) for v in elements] for u in elements]
        comm = list(map(list, zip(*table))) == table
        ident_law = [row[index[ident]] for row in table] == elements
        closed = all(s in index for row in table for s in row)
        if closed:
            cayley = [[index[s] for s in row] for row in table]
            assoc = all(
                cayley[k] == list(map(row.__getitem__, cayley[j]))
                for row in cayley
                for j, k in enumerate(row)
            )
        else:
            # the criterion fails already; sums outside the table go to add
            assoc = all(
                group.add(group.add(u, v), t) == group.add(u, group.add(v, t))
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
    for ell in _depth("4", "negation inverses", max_ell):
        ident = group.identity(ell)
        ok = all(
            group.add(u, group.neg(u)) == ident for u in group.enumerate_elements(ell)
        )
        claims.append(_claim("4", f"negation inverses ell={ell}", ok))
    return claims


def criterion_order_q(max_q: int) -> list[Claim]:
    """Canonical length formula, its d-divisibility cross-check, and the
    multiples of the distinguished pair, for each q up to max_q."""
    claims = []
    for q in _depth("5", "minimal length", max_q):
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
        # the last multiple checked is q*P = zeckendorf(F(n) - 1, n) = (01)^l, the identity
        ok = orderq.multiples_match(pi, q) and orderq.multiples_match(pi_prime, q)
        claims.append(_claim("5", f"multiples q={q}", ok))
    return claims


def criterion_p_group(max_q: int) -> list[Claim]:
    """Order q^2, exponent q, two-generator certificate; mixed-length sums."""
    claims = []
    for q in _depth("6", "order-q group", max_q):
        elements = orderq.p_group(q)
        try:
            exponent, _ = certify_factors(elements)
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
        index = orderq.pi_subgroup_index(q)
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


def repeat_morphism(u, n: int) -> Word:
    """Concatenate the word with itself n times.

    Cyclic admissibility is preserved by literal repetition, and the
    canonical identity (01)^l repeats to (01)^(n*l), so the result needs
    neither normalization nor a second check; the map is an injective
    homomorphism into the group of parameter n*l.
    """
    if n < 1:
        raise InvalidWordError(f"repetition count must be >= 1, got {n}")
    return group.canonical(u) * n


def criterion_gcd() -> list[Claim]:
    """gcd compatibility of the d-sequence up to index 30, and the morphism checks."""
    report = group.gcd_property_report(30)
    claims = [
        _claim(
            "7",
            "gcd property m,n<=30",
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
        image = {u: repeat_morphism(u, reps) for u in elements}
        injective = len(set(image.values())) == len(elements)

        def image_of(s):
            # a sum that is no element, from a wrong law, is mapped on its own
            return image[s] if s in image else repeat_morphism(s, reps)

        homomorphic = all(
            image_of(group.add(u, v)) == group.add(image[u], image[v])
            for u, v in itertools.product(elements, repeat=2)
        )
        pairs_ok = pairs_ok and injective and homomorphic
    claims.append(_claim("7", "repetition morphism pairs", pairs_ok))
    return claims


def _valuation_tag(u: Word) -> str | None:
    """The tag of the class equation valuation(u) + valuation(-u) ==
    valuation(X) that the element u satisfies, X one of (01)^l, (10)^l and
    1^n, or None if it satisfies none: the paper's definition, with -u
    decoded from the negated pair, which ``typology.classify`` never does."""
    n = len(u)
    x, y = phi_pair(u)
    nx, ny = phi_pair(decode_pair(-x, -y, n))
    # the valuations of (01)^l, (10)^l and 1^n, in TAGS order
    targets = dict(zip((fib(n) - 1, fib(n - 1) - 1, fib(n + 1) - 2), typology.TAGS))
    return targets.get(x + 2 * y + nx + 2 * ny)


def criterion_types(max_ell: int) -> list[Claim]:
    """Partition totality, shape rule against the valuation equations,
    rotation relation, and image-set comparisons.

    Each ell's partition is built once, by ``typology.type_classes``, and
    every row reads it; the structural row checks each class against
    ``_valuation_tag``.
    """
    ells = _depth("8", "classify total", max_ell)
    partitions = {}
    for ell in ells:
        try:
            partitions[ell] = typology.type_classes(ell)
        except CircfibError:
            pass
    structural_ok = True
    for ell, classes in partitions.items():
        ident = group.identity(ell)
        for tag, words in classes.items():
            # the identity representatives are tagged by convention only
            if any(_valuation_tag(u) != tag for u in words - {ident, rotate(ident)}):
                structural_ok = False
    total_ok = len(partitions) == len(ells)
    sigma_ok = total_ok and all(map(typology.sigma_relation_check, partitions.values()))
    claims = [
        _claim("8", f"classify total ell<={ells[-1]}", total_ok),
        _claim("8", "structural rule agrees with classify", structural_ok),
        _claim("8", "rotation maps T10 onto T01", sigma_ok),
    ]
    for ell in _depth("8", "image set", max_ell):
        if ell not in partitions:
            continue  # failed as "classify total"
        sets = typology.image_sets(partitions[ell])
        t10 = sets[typology.T10]
        claims.append(
            _claim("8", f"T10 image set ell={ell}", t10.offset == 0, f"offset {t10.offset}")
        )
        for tag in (typology.T01, typology.T11):
            cmp = sets[tag]
            both = f"computed {_set_preview(cmp.computed)}, formula {_set_preview(cmp.formula)}"
            if cmp.offset is None:
                status, detail = FAIL, f"no constant offset fits; {both}"
            elif cmp.offset == 0:
                status, detail = PASS, "offset 0"
            else:
                status, detail = DISCREPANCY, f"constant offset {cmp.offset:+d}; {both}"
            claims.append(Claim("8", f"{tag} image set ell={ell}", status, detail))
    return claims


def _set_preview(values) -> str:
    items = sorted(values)
    more = f" ... ({len(items)} values)" if len(items) > 8 else ""
    return "{" + " ".join(map(str, items[:8])) + more + "}"


def criterion_partition(max_ell: int) -> list[Claim]:
    """Constant block counts and the multiples chain of the distinguished word."""
    claims = []
    for ell in _depth("9", "balanced partition", max_ell):
        try:
            blocks = typology.fib_partition(ell)
            counts = {(b.a_count, b.b_count) for b in blocks}
            ok = len(counts) == 1
            detail = f"{len(blocks)} blocks of length {len(blocks[0].block)}, counts {counts}"
        except CircfibError as exc:
            ok, detail = False, str(exc)
        claims.append(_claim("9", f"balanced partition ell={ell}", ok, detail))
    for ell in _depth("9", "multiples increment", max_ell):
        q = group.d_value(ell)
        pi, _ = orderq.pi_words(q)
        # i*P is the Zeckendorf word of i*valuation(P), so valuations step by valuation(P)
        ok = orderq.multiples_match(pi, q)
        claims.append(_claim("9", f"multiples increment ell={ell} q={q}", ok))
    return claims


def criterion_wheels(max_ell: int) -> list[Claim]:
    """Tree counts by two routes, taxonomy bijection, characterization, laws."""
    claims = []
    trees_of = {}  # the spanning trees of each l, listed once for every check
    for ell in _depth("10", "tree counts", max_ell):
        trees_of[ell] = wheels.spanning_trees(ell)
        backtracking = len(trees_of[ell])
        determinant = wheels.count_trees_matrix(ell)
        order = group.decompose(ell).order
        claims.append(
            _claim(
                "10",
                f"tree counts ell={ell}",
                backtracking == determinant == order,
                f"backtracking {backtracking}, determinant {determinant}, group order {order}",
            )
        )
    ells = _depth("10", "taxonomy bijective", max_ell)
    reports = {ell: wheels.identity_fiber_report(ell) for ell in ells}
    bijective_ok = all(r.bijective and r.identity_fiber == 1 for r in reports.values())
    even_zero_ok = all(set(trees_of[ell]) == r.tree_words for ell, r in reports.items())
    claims.append(_claim("10", f"taxonomy bijective ell<={ells[-1]}", bijective_ok))
    claims.append(_claim("10", f"even-zero-block characterization ell<={ells[-1]}", even_zero_ok))
    axioms_ok, detail = True, ""
    ells = _depth("10", "transported group laws", max_ell)
    try:
        for ell in ells:
            trees, star, plus = trees_of[ell], wheels.star_tree(ell), wheels.tree_add
            axioms_ok = axioms_ok and (
                all(plus(t, star) == t for t in trees)
                and all(plus(a, b) == plus(b, a) for a, b in itertools.combinations(trees, 2))
                and all(any(plus(t, s) == star for s in trees) for t in trees)
            )
    except CircfibError as exc:  # e.g. a taxonomy collision
        axioms_ok, detail = False, str(exc)
    claims.append(_claim("10", f"transported group laws ell<={ells[-1]}", axioms_ok, detail))
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
    ok = _balanced_windows(word, range(1, 51))
    return [_claim("12", "balanced property windows 1..50", ok)]


def run_verify(max_ell: int = 6, max_q: int = 6) -> VerificationReport:
    """Run every suite, each row to its bound or its ceiling in ``DEPTHS``."""
    if max_ell < 1 or max_q < 2:
        raise CircfibError("bounds must satisfy max_ell >= 1, max_q >= 2")
    bounds = {"ell": max_ell, "q": max_q}
    for kind, bound in bounds.items():
        ceiling, criterion, row = max((c, *key) for key, (k, _, c) in DEPTHS.items() if k == kind)
        if bound > ceiling:
            bound_text = f"max_{kind}={bound} exceeds verify ceiling {ceiling}"
            raise ResourceBoundError(f"{bound_text} (criterion {criterion}, {row})")
    # each suite with the kind of bound it takes, if any; built at each call,
    # so a criterion rebound on this module is the one that runs
    suites = (
        (criterion_cardinalities, "ell"), (criterion_structure, "ell"),
        (criterion_uniqueness, "ell"), (criterion_group_axioms, "ell"),
        (criterion_order_q, "q"), (criterion_p_group, "q"), (criterion_gcd, None),
        (criterion_types, "ell"), (criterion_partition, "ell"), (criterion_wheels, "ell"),
        (criterion_base_b, None), (criterion_balance, None),
    )
    claims = []
    for suite, kind in suites:
        claims += suite(bounds[kind]) if kind else suite()
    return VerificationReport(claims)

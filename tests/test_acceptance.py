"""Acceptance suite: one test per criterion, at the stated bounds.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts that no claim in the criterion failed.  Documented discrepancies
(constant-offset image sets) are allowed and printed, never silently
dropped.  All checks are exact integer equalities.
"""

import re
import time

import pytest

from circfib import verify
from circfib.fibcore import _is_admissible, is_admissible, iter_admissible


def _drive(name, claims):
    failures = [c for c in claims if c.status == verify.FAIL]
    discrepancies = [c for c in claims if c.status == verify.DISCREPANCY]
    status = "FAIL" if failures else "PASS"
    print(f"{status} {name}: {len(claims)} claims, {len(discrepancies)} documented discrepancies")
    for claim in failures:
        print(f"    FAIL {claim.subject}: {claim.detail}")
    for claim in discrepancies:
        print(f"    NOTE {claim.subject}: {claim.detail}")
    assert not failures, failures


def test_criterion_01_cardinalities():
    t0 = time.time()
    claims = verify.criterion_cardinalities(max_ell=6)
    _drive("criterion 1 (orders 1,5,16,45,121,320)", claims)
    assert time.time() - t0 < 10


def test_criterion_02_structure():
    t0 = time.time()
    claims = verify.criterion_structure(max_ell=7)
    _drive("criterion 2 (certified invariant factors, ell 2..7)", claims)
    assert time.time() - t0 < 60


def test_criterion_03_normal_form_uniqueness():
    t0 = time.time()
    claims = verify.criterion_uniqueness(max_ell=4)
    subjects = {c.subject for c in claims}
    assert {"normal-form uniqueness n=4", "normal-form uniqueness n=6", "normal-form uniqueness n=8"} <= subjects
    _drive("criterion 3 (unique normal forms, lengths 4/6/8)", claims)
    assert time.time() - t0 < 120


def test_criterion_04_group_axioms():
    t0 = time.time()
    claims = verify.criterion_group_axioms(max_ell=6)
    _drive("criterion 4 (group axioms ell<=4, inverses ell<=6)", claims)
    assert time.time() - t0 < 60


def test_criterion_05_order_q_description():
    t0 = time.time()
    claims = verify.criterion_order_q(max_q=10)
    assert any(c.subject == "minimal length q=10" for c in claims)
    _drive("criterion 5 (canonical lengths and distinguished multiples, q 2..10)", claims)
    assert time.time() - t0 < 60


def test_criterion_06_order_q_group():
    t0 = time.time()
    claims = verify.criterion_p_group(max_q=6)
    _drive("criterion 6 (order q^2, exponent q, mixed-length sums, q<=6)", claims)
    assert time.time() - t0 < 60


def test_criterion_07_gcd_property():
    t0 = time.time()
    claims = verify.criterion_gcd()
    _drive("criterion 7 (gcd property to 30, morphism pairs)", claims)
    assert time.time() - t0 < 10


def test_criterion_08_type_partition():
    t0 = time.time()
    claims = verify.criterion_types(max_ell=7)
    _drive("criterion 8 (type partition, image sets)", claims)
    assert time.time() - t0 < 60


def test_criterion_09_balanced_partition():
    t0 = time.time()
    claims = verify.criterion_partition(max_ell=10)
    _drive("criterion 9 (constant blocks ell 3..10, multiple increments)", claims)
    assert time.time() - t0 < 10


def test_criterion_10_wheels():
    t0 = time.time()
    claims = verify.criterion_wheels(max_ell=8)
    counts = [c for c in claims if c.subject.startswith("tree counts")]
    assert len(counts) == 8
    _drive("criterion 10 (tree counts ell<=8, taxonomy bijection)", claims)
    assert time.time() - t0 < 120


def test_criterion_11_base_b_demo():
    t0 = time.time()
    claims = verify.criterion_base_b()
    _drive("criterion 11 (decimal table, binary isomorphism)", claims)
    assert time.time() - t0 < 5


def test_criterion_12_balanced_property():
    t0 = time.time()
    claims = verify.criterion_balance()
    _drive("criterion 12 (balance of the 10000-prefix, windows<=50)", claims)
    assert time.time() - t0 < 10


def test_full_report_aggregation():
    report = verify.run_verify(max_ell=4, max_q=4)
    assert report.ok
    assert all(c.status in (verify.PASS, verify.DISCREPANCY) for c in report.claims)


def _parameter(subject, kind):
    """The parameter of a kind that a subject names; criterion 3 names the
    length n = 2 * ell instead."""
    match = re.search(rf"\b{kind}<?=(\d+)", subject) or re.search(r"\bn=(\d+)", subject)
    return int(match[1]) // (2 if match[0].startswith("n") else 1)


@pytest.mark.parametrize("max_ell, max_q", [(2, 2), (6, 6), (10, 100)])
def test_every_row_runs_to_its_bound_or_ceiling(max_ell, max_q):
    # each row stops at its bound or its ceiling; (10, 100) are the deepest bounds verify accepts
    claims = verify.run_verify(max_ell, max_q).claims
    assert all(c.status in (verify.PASS, verify.DISCREPANCY) for c in claims)
    bounds = {"ell": max_ell, "q": max_q}
    for (criterion, row), (kind, first, ceiling) in verify.DEPTHS.items():
        depths = [
            _parameter(c.subject, kind)
            for c in claims
            if c.criterion == criterion and row in c.subject
        ]
        expected = range(first, min(bounds[kind], ceiling) + 1)
        assert max(depths, default=None) == max(expected, default=None), (criterion, row)


def test_negative_control_corrupted_d_formula(monkeypatch):
    from circfib import group

    d_value = group.d_value

    def corrupted(ell):
        return d_value(ell) + (1 if ell == 5 else 0)

    monkeypatch.setattr(group, "d_value", corrupted)
    report = verify.run_verify(max_ell=5, max_q=2)
    assert not report.ok
    assert [c.detail for c in report.failures if c.criterion == "2"] == [
        "certified (11, 11), predicted (12, 12)"
    ]


def test_non_associative_law_is_caught(monkeypatch):
    # a commutative law with the right identity that differs from add on
    # one pair of elements: only associativity can catch it
    from circfib import group

    add = group.add
    a, b = group.enumerate_elements(2)[:2]
    assert group.identity(2) not in (a, b)

    def corrupted(u, v):
        if {u, v} == {a, b}:
            return add(add(u, v), a)
        return add(u, v)

    monkeypatch.setattr(verify.group, "add", corrupted)
    claims = verify.criterion_group_axioms(max_ell=2)
    bad = next(c for c in claims if c.subject == "group axioms ell=2")
    assert bad.status == verify.FAIL
    assert bad.detail == "assoc=False comm=True identity=True closed=True"


def test_unclosed_table_is_caught(monkeypatch):
    # a sum that returns the identity as (10)^l, which is not an element
    from circfib import group
    from circfib.fibcore import rotate

    add = group.add

    def corrupted(u, v):
        s = add(u, v)
        return rotate(s) if s == group.identity(len(s) // 2) else s

    monkeypatch.setattr(verify.group, "add", corrupted)
    claims = verify.criterion_group_axioms(max_ell=2)
    assert [(c.subject, c.status, c.detail) for c in claims] == [
        ("group axioms ell=1", verify.FAIL, "assoc=True comm=True identity=False closed=False"),
        ("group axioms ell=2", verify.FAIL, "assoc=True comm=True identity=False closed=False"),
        ("negation inverses ell=1", verify.FAIL, ""),
        ("negation inverses ell=2", verify.FAIL, ""),
    ]


def test_non_commutative_law_is_caught(monkeypatch):
    # a law that differs from add on one ordered pair of elements only
    from circfib import group

    add = group.add
    a, b = group.enumerate_elements(2)[:2]

    def corrupted(u, v):
        if (u, v) == (a, b):
            return add(add(u, v), a)
        return add(u, v)

    monkeypatch.setattr(verify.group, "add", corrupted)
    claims = verify.criterion_group_axioms(max_ell=2)
    assert [(c.subject, c.status, c.detail) for c in claims] == [
        ("group axioms ell=1", verify.PASS, "assoc=True comm=True identity=True closed=True"),
        ("group axioms ell=2", verify.FAIL, "assoc=False comm=False identity=True closed=True"),
        ("negation inverses ell=1", verify.PASS, ""),
        ("negation inverses ell=2", verify.PASS, ""),
    ]


def test_wrong_normal_form_is_caught(monkeypatch):
    # a normalizer that is wrong on one {0,1,2}-word of length 6 only
    from circfib.fibcore import iter_admissible

    normalize = verify.normalize
    victim = (2, 0, 0, 1, 0, 0)
    right = normalize(victim)
    wrong = next(w for w in iter_admissible(6) if any(w) and w != right)

    def corrupted(w):
        return wrong if w == victim else normalize(w)

    monkeypatch.setattr(verify, "normalize", corrupted)
    assert verify.uniqueness_scan(6) == (16, 1, False)
    assert verify.uniqueness_scan(4) == (5, 1, True)
    claims = verify.criterion_uniqueness(max_ell=3)
    assert [(c.subject, c.status) for c in claims] == [
        ("normal-form uniqueness n=4", verify.PASS),
        ("normal-form uniqueness n=6", verify.FAIL),
    ]


def test_merged_move_classes_are_caught(monkeypatch):
    # a partition that puts the first two classes together: one class with
    # two admissible words, neither of them the identity pair
    move_classes = verify.move_classes

    def merged(n):
        first, second, *rest = move_classes(n)
        return [sorted(first + second), *rest]

    monkeypatch.setattr(verify, "move_classes", merged)
    for n in (4, 6, 8):
        assert verify.uniqueness_scan(n) == (1, 0, False)
    claims = verify.criterion_uniqueness(max_ell=4)
    assert [(c.status, c.detail) for c in claims] == [
        (verify.FAIL, "1 components, 0 identity component(s)")
    ] * 3


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_admissible_members_are_one_set_intersection(n):
    # criterion 3 reads each class's admissible words off one set of them
    words = set(iter_admissible(n))
    for members in verify.move_classes(n):
        assert words.intersection(members) == {x for x in members if _is_admissible(x)}


def test_split_move_class_is_caught(monkeypatch):
    # a partition that splits the last class into its admissible words (the
    # identity pair at n = 4 and 6) and the rest, which then holds none
    move_classes = verify.move_classes

    def split(n):
        *classes, last = move_classes(n)
        admissible = [w for w in last if is_admissible(w)]
        return [*classes, admissible, [w for w in last if w not in admissible]]

    monkeypatch.setattr(verify, "move_classes", split)
    for n, expected in ((4, (6, 1, False)), (6, (17, 1, False)), (8, (46, 1, False))):
        assert verify.uniqueness_scan(n) == expected


@pytest.mark.parametrize("wrong", ["shared", "swapped", "collapsed"])
def test_wrong_repetition_morphism_is_caught(monkeypatch, wrong):
    # repeat_morphism wrong at ell = 2 only, mapping each u as it maps
    # source.get(u, u): two elements share one image (neither injective nor
    # homomorphic); two elements swap images (injective, but no homomorphism:
    # the group is Z/5, where no automorphism is a single transposition); or
    # every element maps as the identity (homomorphic, but not injective)
    from circfib import group

    elements, ident = group.enumerate_elements(2), group.identity(2)
    a, b = [u for u in elements if u != ident][:2]
    source = {
        "shared": {a: b},
        "swapped": {a: b, b: a},
        "collapsed": dict.fromkeys(elements, ident),
    }[wrong]
    repeat_morphism = verify.repeat_morphism

    def corrupted(u, reps):
        return repeat_morphism(source.get(u, u), reps)

    monkeypatch.setattr(verify, "repeat_morphism", corrupted)
    assert {c.subject: c.status for c in verify.criterion_gcd()} == {
        "gcd property m,n<=30": verify.PASS,
        "even-index d equals classical fib": verify.PASS,
        "repetition morphism pairs": verify.FAIL,
    }


def test_unbalanced_prefix_is_caught(monkeypatch):
    # the Fibonacci word with one letter flipped in the middle
    prefix = verify.fibonacci_word_prefix

    def corrupted(n):
        w, i = prefix(n), n // 2
        return w[:i] + ("b" if w[i] == "a" else "a") + w[i + 1:]

    monkeypatch.setattr(verify, "fibonacci_word_prefix", corrupted)
    (claim,) = verify.criterion_balance()
    assert claim.status == verify.FAIL


def test_wrong_type_is_caught(monkeypatch):
    # a classifier that tags one T01 element of ell = 3 as T10
    from circfib import group, typology

    classify = typology.classify
    victim = next(
        u for u in group.enumerate_elements(3)
        if u != group.identity(3) and classify(u) == typology.T01
    )

    def corrupted(u):
        return typology.T10 if u == victim else classify(u)

    monkeypatch.setattr(typology, "classify", corrupted)
    status = {c.subject: c.status for c in verify.criterion_types(max_ell=4)}
    assert status["classify total ell<=4"] == verify.PASS
    assert status["structural rule agrees with classify"] == verify.FAIL
    assert status["rotation maps T10 onto T01"] == verify.FAIL
    assert status["T10 image set ell=3"] == verify.FAIL
    assert status["T10 image set ell=4"] == verify.PASS


def test_wrong_valuation_targets_are_caught(monkeypatch):
    # verify's valuation targets one off at n = 8 only, where fib(8) is
    # T01's target: the structural row fails and no other row moves
    from circfib.fibcore import fib

    before = [(c.subject, c.status) for c in verify.criterion_types(max_ell=5)]
    monkeypatch.setattr(verify, "fib", lambda k: fib(k) + (k == 8))
    after = [(c.subject, c.status) for c in verify.criterion_types(max_ell=5)]
    changed = [(a, b) for a, b in zip(before, after) if a != b]
    assert changed == [
        (
            ("structural rule agrees with classify", verify.PASS),
            ("structural rule agrees with classify", verify.FAIL),
        )
    ]
    assert len(after) == len(before)


def test_wrong_last_multiple_is_caught(monkeypatch):
    # a decoder that is right except that it returns the identity as
    # (10)^l, which only the q-th multiple of the distinguished word reaches
    from circfib import group, orderq
    from circfib.fibcore import rotate

    decode_pair = orderq.decode_pair

    def corrupted(x, y, n):
        w = decode_pair(x, y, n)
        return rotate(w) if w == group.identity(n // 2) else w

    monkeypatch.setattr(orderq, "decode_pair", corrupted)
    claims = verify.criterion_partition(max_ell=5)
    multiples = [c for c in claims if c.subject.startswith("multiples increment")]
    assert [c.subject for c in multiples] == [
        "multiples increment ell=3 q=4",
        "multiples increment ell=4 q=3",
        "multiples increment ell=5 q=11",
    ]
    assert all(c.status == verify.FAIL for c in multiples)
    assert all(c.status == verify.PASS for c in claims if c not in multiples)


def test_wrong_taxonomy_is_caught(monkeypatch):
    # a normalizer that sends two tree words of length 8 to one element
    from circfib import wheels

    normalize = wheels.normalize
    star, other = (1,) * 8, (0, 0, 1, 1, 1, 1, 1, 1)
    assert other in wheels._tree_words(4)

    def corrupted(w):
        return normalize(star if w == other else w)

    monkeypatch.setattr(wheels, "normalize", corrupted)
    status = {c.subject: c.status for c in verify.criterion_wheels(max_ell=4)}
    assert status["taxonomy bijective ell<=4"] == verify.FAIL
    assert status["even-zero-block characterization ell<=4"] == verify.PASS
    assert status["transported group laws ell<=3"] == verify.PASS


def test_wrong_transported_law_at_ell_1_is_caught(monkeypatch):
    # a transported law that is wrong on the one tree of ell = 1 only, which
    # the laws row sees only if it starts at ell = 1
    from circfib import wheels

    tree_add = wheels.tree_add

    def corrupted(t1, t2):
        # (0, 1) holds no edge of the 1-wheel: not a tree
        return (0, 1) if len(t1) == 2 else tree_add(t1, t2)

    right = {c.subject: c.status for c in verify.criterion_wheels(max_ell=4)}
    monkeypatch.setattr(wheels, "tree_add", corrupted)
    status = {c.subject: c.status for c in verify.criterion_wheels(max_ell=4)}
    assert right.pop("transported group laws ell<=3") == verify.PASS
    assert status.pop("transported group laws ell<=3") == verify.FAIL
    assert status == right


def test_taxonomy_collision_is_reported(monkeypatch):
    # a normalizer that sends a tree word of length 6 to the star's
    # element: criterion 10 reports the collision as a failed claim
    from circfib import wheels

    normalize = wheels.normalize
    star, other = (1,) * 6, (0, 0, 1, 1, 1, 1)
    assert other in wheels._tree_words(3)

    def corrupted(w):
        return normalize(star if w == other else w)

    wheels.taxonomy_table.cache_clear()  # tables built by the right normalizer
    monkeypatch.setattr(wheels, "normalize", corrupted)
    try:
        claims = verify.criterion_wheels(max_ell=4)
        report = verify.run_verify(max_ell=4, max_q=2)
    finally:
        wheels.taxonomy_table.cache_clear()  # tables built by the wrong one
    assert [(c.subject, c.status, c.detail) for c in claims] == [
        ("tree counts ell=1", verify.PASS, "backtracking 1, determinant 1, group order 1"),
        ("tree counts ell=2", verify.PASS, "backtracking 5, determinant 5, group order 5"),
        ("tree counts ell=3", verify.PASS, "backtracking 16, determinant 16, group order 16"),
        ("tree counts ell=4", verify.PASS, "backtracking 45, determinant 45, group order 45"),
        ("taxonomy bijective ell<=4", verify.FAIL, ""),
        ("even-zero-block characterization ell<=4", verify.PASS, ""),
        (
            "transported group laws ell<=3",
            verify.FAIL,
            "taxonomy collision at ell=3: 111111 and 001111",
        ),
    ]
    assert not report.ok
    assert [c.subject for c in report.failures] == [
        "taxonomy bijective ell<=4",
        "transported group laws ell<=3",
    ]


def test_failed_partition_is_reported(monkeypatch):
    # a partition routine that raises at ell = 4 only
    from circfib import typology
    from circfib.errors import PartitionError

    fib_partition = typology.fib_partition

    def corrupted(ell, *args):
        if ell == 4:
            raise PartitionError("boom")
        return fib_partition(ell, *args)

    monkeypatch.setattr(typology, "fib_partition", corrupted)
    claims = verify.criterion_partition(max_ell=5)
    bad = [(c.subject, c.status, c.detail) for c in claims if c.status != verify.PASS]
    assert bad == [("balanced partition ell=4", verify.FAIL, "boom")]


def test_failed_order_q_certificate_is_reported(monkeypatch):
    # a certificate that finds no second generator for the q = 3 group
    from circfib.errors import StructureMismatchError

    certify_factors = verify.certify_factors

    def corrupted(elements):
        if len(elements) == 9:
            raise StructureMismatchError("no second generator")
        return certify_factors(elements)

    monkeypatch.setattr(verify, "certify_factors", corrupted)
    claims = verify.criterion_p_group(max_q=4)
    bad = [(c.subject, c.status, c.detail) for c in claims if c.status != verify.PASS]
    assert bad == [
        ("order-q group q=3", verify.FAIL, "size 9 (want 9), certified=False: no second generator"),
    ]


def test_wrong_binary_sum_is_caught(monkeypatch):
    # a base-b sum that is wrong on one pair of length-3 binary words
    from circfib import baseb

    circ_add = baseb.circ_add_base_b
    one = baseb.word_from_value(1, 2, 3)

    def corrupted(u, v):
        s = circ_add(u, v)
        return baseb.word_from_value(3, 2, 3) if u == v == one else s

    monkeypatch.setattr(baseb, "circ_add_base_b", corrupted)
    claims = verify.criterion_base_b()
    assert [(c.subject, c.status, c.detail) for c in claims] == [
        (
            "decimal period 1/7 table",
            verify.PASS,
            "142857 285714 428571 571428 714285 857142 000000",
        ),
        ("binary value map is isomorphism n<=4", verify.FAIL, ""),
    ]


def test_raised_structure_certificate_is_reported(monkeypatch):
    # a certificate that raises for the ell = 4 group (45 elements) only
    from circfib.errors import StructureMismatchError

    certify_factors = verify.certify_factors

    def corrupted(elements):
        if len(elements) == 45:
            raise StructureMismatchError("no second generator")
        return certify_factors(elements)

    monkeypatch.setattr(verify, "certify_factors", corrupted)
    claims = verify.criterion_structure(max_ell=5)
    assert [(c.subject, c.status, c.detail) for c in claims] == [
        ("structure ell=2", verify.PASS, "certified (5, 1), predicted (5, 1)"),
        ("structure ell=3", verify.PASS, "certified (4, 4), predicted (4, 4)"),
        ("structure ell=4", verify.FAIL, "no second generator"),
        ("structure ell=5", verify.PASS, "certified (11, 11), predicted (11, 11)"),
    ]


def test_unclosed_mixed_length_sum_is_caught(monkeypatch):
    # a mixed-length sum one digit too long unless it adds the identity (01):
    # only the three sampled pairs see it, so the identity law rows still pass
    from circfib import group, orderq

    oplus = orderq.oplus

    def corrupted(u, v):
        s = oplus(u, v)
        return s if v == group.identity(1) else s + (0,)

    monkeypatch.setattr(orderq, "oplus", corrupted)
    claims = verify.criterion_p_group(max_q=2)
    assert [(c.subject, c.status) for c in claims] == [
        ("order-q group q=2", verify.PASS),
        ("distinguished pair span q=2", verify.PASS),
        ("mixed-length identity ell=1", verify.PASS),
        ("mixed-length identity ell=2", verify.PASS),
        ("mixed-length identity ell=3", verify.PASS),
        ("mixed-length closure sampled", verify.FAIL),
    ]


def test_raised_type_partition_is_reported(monkeypatch):
    # a partition routine that raises at ell = 3 only: the totality row
    # fails, and ell = 3 gets no image set rows
    from circfib import typology
    from circfib.errors import PartitionError

    type_classes = typology.type_classes

    def corrupted(ell, *args):
        if ell == 3:
            raise PartitionError("boom")
        return type_classes(ell, *args)

    monkeypatch.setattr(typology, "type_classes", corrupted)
    claims = verify.criterion_types(max_ell=4)
    assert [(c.subject, c.status) for c in claims] == [
        ("classify total ell<=4", verify.FAIL),
        ("structural rule agrees with classify", verify.PASS),
        ("rotation maps T10 onto T01", verify.FAIL),
        ("T10 image set ell=2", verify.PASS),
        ("T01 image set ell=2", verify.DISCREPANCY),
        ("T11 image set ell=2", verify.PASS),
        ("T10 image set ell=4", verify.PASS),
        ("T01 image set ell=4", verify.DISCREPANCY),
        ("T11 image set ell=4", verify.PASS),
    ]


def test_all_ones_binary_sum_is_caught(monkeypatch):
    # a binary sum that returns the zero class as the all-ones word, which
    # has the right value modulo 2^n - 1; the decimal table is left alone
    from circfib import baseb

    circ_add = baseb.circ_add_base_b

    def corrupted(u, v):
        s = circ_add(u, v)
        if s.base == 2 and not any(s.digits):
            return baseb.BaseBWord((1,) * len(s.digits), 2)
        return s

    monkeypatch.setattr(baseb, "circ_add_base_b", corrupted)
    claims = verify.criterion_base_b()
    assert [(c.subject, c.status, c.detail) for c in claims] == [
        (
            "decimal period 1/7 table",
            verify.PASS,
            "142857 285714 428571 571428 714285 857142 000000",
        ),
        ("binary value map is isomorphism n<=4", verify.FAIL, ""),
    ]

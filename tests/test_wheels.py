import itertools

import pytest

from circfib import wheels
from circfib.errors import InvalidWordError, ResourceBoundError
from circfib.fibcore import as_word, format_word, parse_word
from circfib.group import add, enumerate_elements, identity
from circfib.rewrite import normalize
from circfib.wheels import (
    count_trees_matrix,
    identity_fiber_report,
    spanning_trees,
    star_tree,
    taxonomy_table,
    tree_add,
    tree_words,
    wheel_edges,
)

A004146 = [1, 5, 16, 45, 121, 320, 841, 2205]


def is_tree_word(word) -> bool:
    """True iff the word is binary, nonzero, and its cyclic zero blocks have
    even length: the filter that ``wheels._tree_words`` is checked against.

    These are exactly the raw taxonomy words of spanning trees.
    """
    w = as_word(word)
    if any(d > 1 for d in w):
        return False
    if not any(w):
        return False
    n = len(w)
    start = w.index(1)
    run = 0
    for k in range(1, n + 1):
        d = w[(start + k) % n]
        if d == 0:
            run += 1
        else:
            if run % 2 == 1:
                return False
            run = 0
    return True


def test_wheel_edges_degenerate_cases():
    assert len(wheel_edges(1)) == 1  # the rim self-loop is excluded
    edges2 = wheel_edges(2)
    assert len(edges2) == 4  # two spokes plus two parallel rim edges
    assert [e[:2] for e in edges2 if e[0] == "s"] == [("s", 0), ("s", 1)]


def test_spanning_tree_counts():
    for ell, expected in enumerate(A004146, start=1):
        assert len(spanning_trees(ell)) == expected


def test_spanning_trees_are_trees():
    # l edges each: the spokes read 1 at even positions, the rim edges 0 at odd
    for ell in (1, 2, 3, 4):
        for tree in spanning_trees(ell):
            assert sum(tree[0::2]) + tree[1::2].count(0) == ell


def test_generated_and_backtracked_trees_agree():
    for ell in range(1, 11):
        assert tree_words(ell) == spanning_trees(ell), ell


def test_small_wheels_are_pinned():
    # l = 1 has no rim edge, so its one tree leaves the rim bit at 1; with the
    # two parallel rim edges of l = 2, each spoke and each rim make a tree
    assert tree_words(1) == [(1, 1)]
    assert [format_word(w) for w in tree_words(2)] == ["1111", "1001", "1100", "0011", "0110"]


@pytest.mark.parametrize("make", [star_tree, tree_words])
def test_trees_of_a_bad_ell_are_refused(make):
    for ell in (0, -1):
        with pytest.raises(InvalidWordError) as exc:
            make(ell)
        assert str(exc.value) == f"ell must be >= 1, got {ell}"


def test_spanning_trees_bound():
    # --max-ell is the CLI's bound: the library refuses only past the listing ceiling
    for listing in (spanning_trees, tree_words):
        with pytest.raises(ResourceBoundError) as exc:
            listing(13)
        assert str(exc.value) == "ell=13 exceeds the listing ceiling 12"


def test_matrix_count_agrees():
    for ell in range(1, 9):
        assert count_trees_matrix(ell) == A004146[ell - 1]
    # the closed form L(2l) - 2, with L the Lucas numbers, far past enumeration
    lucas = [2, 1]
    while len(lucas) <= 120:
        lucas.append(lucas[-1] + lucas[-2])
    for ell in range(1, 61):
        assert count_trees_matrix(ell) == lucas[2 * ell] - 2
    with pytest.raises(InvalidWordError) as exc:
        count_trees_matrix(0)
    assert str(exc.value) == "ell must be >= 1, got 0"


def test_tree_word_examples():
    # the star, spoke 0 with rims 0 and 1, and spokes 0 and 1 with rim 1
    assert format_word(star_tree(3)) == "111111"
    trees = spanning_trees(3)
    assert parse_word("100001") in trees
    assert parse_word("111001") in trees
    assert parse_word("101101") not in trees  # spokes 0, 1 and rim 0 close a cycle


def test_taxonomy_examples():
    assert normalize(star_tree(3)) == identity(3)
    assert format_word(normalize(parse_word("100001"))) == "010000"


def test_taxonomy_bijective():
    for ell in range(1, 6):
        table = taxonomy_table(ell)
        assert set(table) == set(enumerate_elements(ell))


def test_is_tree_word():
    assert is_tree_word(parse_word("111111"))
    assert not is_tree_word(parse_word("1010"))
    assert is_tree_word(parse_word("1001"))
    assert not is_tree_word(parse_word("0000"))
    assert not is_tree_word(parse_word("0120"))


def test_tree_words_are_even_zero_block_words():
    for ell in (1, 2, 3, 4):
        raw = set(spanning_trees(ell))
        assert len(raw) == len(spanning_trees(ell))  # injective on trees
        expected = {w for w in itertools.product((0, 1), repeat=2 * ell) if is_tree_word(w)}
        assert raw == expected


def test_generated_tree_words_match_the_filter():
    for ell in range(1, 9):
        expected = frozenset(filter(is_tree_word, itertools.product((0, 1), repeat=2 * ell)))
        assert wheels._tree_words(ell) == expected, ell


def test_identity_fiber_report():
    for ell in (1, 2, 3, 4):
        report = identity_fiber_report(ell)
        assert report.bijective
        assert report.identity_fiber == 1
        assert len(report.tree_words) == report.group_order


def test_tree_add_identity_and_inverse():
    for ell in (1, 2, 3):
        star = star_tree(ell)
        trees = spanning_trees(ell)
        for t in trees:
            assert tree_add(t, star) == t
            assert any(tree_add(t, s) == star for s in trees)


def test_tree_add_group_axioms_ell2():
    trees = spanning_trees(2)
    for t1, t2 in itertools.product(trees, repeat=2):
        assert tree_add(t1, t2) == tree_add(t2, t1)
    for t1, t2, t3 in itertools.product(trees, repeat=3):
        assert tree_add(tree_add(t1, t2), t3) == tree_add(t1, tree_add(t2, t3))


def test_tree_add_matches_sum_of_taxonomies():
    # tree_add normalizes the sum of the raw words; the sum of the two
    # normalized elements is the oracle
    for ell in (1, 2, 3):
        table = taxonomy_table(ell)
        for t1, t2 in itertools.product(spanning_trees(ell), repeat=2):
            assert tree_add(t1, t2) == table[add(normalize(t1), normalize(t2))]


def test_tree_add_size_mismatch():
    with pytest.raises(InvalidWordError):
        tree_add(star_tree(2), star_tree(3))

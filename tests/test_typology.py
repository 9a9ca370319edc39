import re
from dataclasses import dataclass

import pytest

from circfib import typology
from circfib.errors import InvalidWordError, PartitionError, ResourceBoundError
from circfib.fibcore import fib, fibonacci_word_prefix, parse_word, phi_pair, valuation, zeckendorf
from circfib.group import canonical, d_value, enumerate_elements, identity, neg, scalar_mul
from circfib.orderq import minimal_even_length, pi_words
from circfib.rewrite import _above_sqrt5
from circfib.typology import (
    T01,
    T10,
    T11,
    classify,
    fib_partition,
    image_sets,
    sigma_relation_check,
    type_classes,
)


def test_classify_examples():
    assert classify(parse_word("0001")) == T01
    assert classify(parse_word("0010")) == T10
    assert classify(parse_word("001001")) == T11


def test_classify_identity_conventions():
    assert classify(identity(3)) == T01
    # the other identity representative canonicalizes to (01)^l first
    assert classify(parse_word("1010")) == T01


def test_classify_total_and_unique():
    for ell in range(2, 6):
        for u in enumerate_elements(ell):
            assert classify(u) in (T01, T10, T11)


def _classify_through_neg(u):
    """``classify``'s oracle: the class equation valuation(u) +
    valuation(-u) == valuation(X), through the public ``valuation`` and
    ``neg``, each of which validates and encodes again."""
    w = canonical(u)
    n = len(w)
    if w == identity(n // 2):
        return T01
    total = valuation(w) + valuation(neg(w))
    targets = {T01: fib(n) - 1, T10: fib(n - 1) - 1, T11: fib(n + 1) - 2}
    (tag,) = [tag for tag, v in targets.items() if v == total]
    return tag


@pytest.mark.parametrize("ell", range(1, 11))
def test_classify_matches_the_valuation_and_neg_route(ell):
    elements = enumerate_elements(ell)
    assert [classify(u) for u in elements] == [_classify_through_neg(u) for u in elements]
    ident = (1, 0) * ell  # the identity written as (10)^l
    assert classify(ident) == _classify_through_neg(ident) == T01


def test_structural_class_examples():
    # the class read off the word's shape agrees with the valuation route
    for text, tag in (("0010", T10), ("1000", T10), ("001001", T11)):
        assert classify(parse_word(text)) == _classify_through_neg(parse_word(text)) == tag
    with pytest.raises(InvalidWordError):
        classify(parse_word("1100"))


def _sigma(word):
    """The conjugate x + y*conj(phi) of the word's pair (x, y), as (a, b)
    standing for (a + b*sqrt5)/2."""
    x, y = phi_pair(word)
    return 2 * x + y, -y


def _above(r, t):
    """r > t, for (a, b) standing for (a + b*sqrt5)/2, decided on integers."""
    return _above_sqrt5(r[0] - t[0], t[1] - r[1])


@pytest.mark.parametrize("n", range(1, 17))
def test_conjugate_facts_of_the_shape_proof(n):
    # the window and F1-F3 of the proof next to classify, on every nonzero
    # word of n digits with no two adjacent ones: the greedy words of
    # 1..F(n)-1
    minus_one, zero, inv_phi, phi = (-2, 0), (0, 0), (-1, 1), (1, 1)
    evens = tuple(1 - i % 2 for i in range(n))  # (10)^l at even n
    top = _sigma(evens)
    for value in range(1, fib(n)):
        w = zeckendorf(value, n)
        sigma = _sigma(w)
        assert _above(sigma, minus_one) and _above(phi, sigma), w
        assert (w[0] == 1) == _above(sigma, inv_phi), w  # F1
        if w.index(1) % 2 == 0:  # F2
            assert _above(sigma, zero), w
        else:
            assert _above(zero, sigma), w
        assert w == evens or _above(top, sigma), w  # F3


def test_class_sizes_ell2():
    tags = {}
    for u in enumerate_elements(2):
        tags.setdefault(classify(u), []).append(u)
    assert len(tags[T01]) == 3  # includes the identity by convention
    assert len(tags[T10]) == 2
    assert T11 not in tags


def test_image_sets_ell2_values():
    sets = image_sets(type_classes(2))
    assert sets[T10].computed == frozenset({1, 3, 4})
    assert sets[T10].formula == frozenset({1, 3, 4})
    assert sets[T10].offset == 0
    assert sets[T01].computed == frozenset({2, 5, 7})
    assert sets[T01].formula == frozenset({1, 4, 6})
    assert sets[T01].offset == 1
    assert sets[T11].computed == frozenset() == sets[T11].formula


def test_image_set_offsets_stable():
    for ell in range(2, 6):
        sets = image_sets(type_classes(ell))
        assert sets[T10].offset == 0, ell
        assert sets[T01].offset == 1, ell
        assert sets[T11].offset == 0, ell  # exact wherever nonempty
        # the offset rule: 0 exactly when the two sets are equal
        assert all((c.offset == 0) == (c.computed == c.formula) for c in sets.values()), ell


def test_type_classes_classify_each_element():
    for ell in range(1, 6):
        classes = type_classes(ell)
        ident = identity(ell)
        assert classes[T01] & classes[T10] == frozenset()
        assert ident in classes[T01] and parse_word("10" * ell) in classes[T10]
        words = set().union(*classes.values()) - {parse_word("10" * ell)}
        assert words == set(enumerate_elements(ell))
        for tag, members in classes.items():
            assert all(classify(u) == tag for u in members - {ident, parse_word("10" * ell)})


def test_image_sets_without_an_offset():
    # a T11 element moved into T01: neither class is a shift of its formula
    classes = dict(type_classes(4))
    moved = min(classes[T11])
    classes[T01] = classes[T01] | {moved}
    classes[T11] = classes[T11] - {moved}
    sets = image_sets(classes)
    assert sets[T01].offset is None and sets[T11].offset is None
    assert sets[T10].offset == 0
    assert not sigma_relation_check(classes)


def _direct_counts(upto):
    word = fibonacci_word_prefix(upto)
    return [(word[:k].count("a"), word[:k].count("b")) for k in range(upto)]


def test_prefix_counts_match_a_direct_count():
    # counts[k] holds the letter counts of the first k letters, k < upto
    for upto in range(301):
        assert typology._prefix_counts(upto) == _direct_counts(upto), upto


def test_image_set_formulas_match_direct_prefix_counts():
    # T10 and T01 range over k < F(2l-2), T11 over k < F(2l-5) - 1, each
    # counted on its own prefix
    for ell in range(1, 10):
        sets = image_sets(type_classes(ell))
        main = _direct_counts(fib(2 * ell - 2))
        t11 = _direct_counts(fib(2 * ell - 5) - 1 if ell > 1 else 0)
        assert sets[T10].formula == {1 + 2 * a + b for a, b in main}, ell
        assert sets[T01].formula == {1 + 3 * a + 2 * b for a, b in main}, ell
        assert sets[T11].formula == {fib(2 * ell - 1) + 3 + 5 * a + 3 * b for a, b in t11}, ell


def test_sigma_relation():
    assert sigma_relation_check(type_classes(1))
    assert sigma_relation_check(type_classes(2))
    assert sigma_relation_check(type_classes(3))
    assert sigma_relation_check(type_classes(4))


def test_fib_partition_small():
    blocks = fib_partition(3)
    assert [b.block for b in blocks] == ["ba", "ba", "ab", "ab"]
    assert {(b.a_count, b.b_count) for b in blocks} == {(1, 1)}

    blocks = fib_partition(4)
    assert len(blocks) == 3
    assert all(len(b.block) == 7 for b in blocks)
    assert {(b.a_count, b.b_count) for b in blocks} == {(4, 3)}


def test_fib_partition_block_count_is_d():
    for ell in range(3, 9):
        blocks = fib_partition(ell)
        assert len(blocks) == d_value(ell)
        assert len(blocks[0].block) * len(blocks) == fib(2 * ell - 2)


def test_fib_partition_block_weight_equals_second_pi_valuation():
    # each block's weighted count 2a + b equals the valuation of P' at q = d(l)
    for ell in range(3, 8):
        blocks = fib_partition(ell)
        _, pi_prime = pi_words(d_value(ell))
        assert 2 * blocks[0].a_count + blocks[0].b_count == valuation(pi_prime)


def test_fib_partition_domain(monkeypatch):
    with pytest.raises(InvalidWordError):
        fib_partition(2)
    assert len(fib_partition(11)) == d_value(11)

    # the ceiling comes first: at l = 40 the prefix would hold F(78), about 10^16, letters
    def no_prefix(n):
        raise AssertionError(f"built a prefix of {n} letters")

    monkeypatch.setattr(typology, "fibonacci_word_prefix", no_prefix)
    with pytest.raises(ResourceBoundError, match="^ell=40 exceeds the partition ceiling 18$"):
        fib_partition(40)


def _flipped_at(i):
    """fibonacci_word_prefix with the letter at index i flipped."""

    def prefix(n):
        w = list(fibonacci_word_prefix(n))
        w[i] = "b" if w[i] == "a" else "a"
        return "".join(w)

    return prefix


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("d_value", lambda ell: 4, "block count 4 does not divide 21"),
        ("fibonacci_word_prefix", _flipped_at(-1), "trailing letter of the split is 'b', not 'a'"),
        (
            "fibonacci_word_prefix",
            _flipped_at(0),
            "blocks at ell=4 have non-constant counts: {(3, 4), (4, 3)}",
        ),
    ],
    ids=["block-count", "trailing-letter", "counts"],
)
def test_fib_partition_refuses_a_wrong_split(monkeypatch, name, value, message):
    # at ell = 4 the word is 'b' + 21 letters, in d(4) = 3 blocks of 7
    monkeypatch.setattr(typology, name, value)
    with pytest.raises(PartitionError, match=re.escape(message)):
        fib_partition(4)


@dataclass(frozen=True)
class KPiTypeReport:
    """Tags of the multiples of the distinguished pair for q = d(l)."""

    ell: int
    q: int
    pi_tags: tuple[str, ...]
    pi_prime_tags: tuple[str, ...]

    @property
    def single_tag_per_family(self) -> bool:
        return len(set(self.pi_tags)) == 1 and len(set(self.pi_prime_tags)) == 1

    @property
    def families_distinct(self) -> bool:
        return set(self.pi_tags).isdisjoint(self.pi_prime_tags)


def k_pi_type_check(ell: int) -> KPiTypeReport:
    """Classify every multiple k*P and k*P' for 1 <= k < q, q = d(l)."""
    q = d_value(ell)
    assert q >= 2 and minimal_even_length(q) == 2 * ell
    pi, pi_prime = pi_words(q)
    pi_tags = tuple(classify(scalar_mul(k, pi)) for k in range(1, q))
    pi_prime_tags = tuple(classify(scalar_mul(k, pi_prime)) for k in range(1, q))
    return KPiTypeReport(ell, q, pi_tags, pi_prime_tags)


def test_k_pi_type_check():
    for ell in (3, 4, 5):
        report = k_pi_type_check(ell)
        assert report.q == d_value(ell)
        assert report.single_tag_per_family
        assert report.families_distinct
        # under this package's conventions the families come out mirrored
        assert set(report.pi_tags) == {T01}
        assert set(report.pi_prime_tags) == {T10}

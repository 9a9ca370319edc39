import itertools
from math import gcd

import pytest

from circfib import baseb
from circfib.baseb import (
    BaseBWord,
    circ_add_base_b,
    multiplicative_order,
    period_word,
    verify_cyclic_group,
    word_from_value,
)
from circfib.errors import InvalidWordError, ResourceBoundError


def parse_base_b(text: str, base: int) -> BaseBWord:
    if "," in text:
        return BaseBWord(tuple(int(p) for p in text.split(",")), base)
    return BaseBWord(tuple(int(c) for c in text), base)


def test_circ_add_examples():
    pi = parse_base_b("142857", 10)
    assert str(circ_add_base_b(pi, pi)) == "285714"
    assert str(circ_add_base_b(pi, parse_base_b("857142", 10))) == "000000"
    assert str(circ_add_base_b(parse_base_b("05", 10), parse_base_b("05", 10))) == "10"


def test_circ_add_wrap_carry():
    w = parse_base_b("857142", 10)
    assert str(circ_add_base_b(w, w)) == "714285"  # final carry wraps to the right


def test_circ_add_validation():
    with pytest.raises(InvalidWordError):
        circ_add_base_b(parse_base_b("05", 10), parse_base_b("012", 10))
    with pytest.raises(InvalidWordError):
        circ_add_base_b(parse_base_b("01", 2), parse_base_b("01", 10))
    with pytest.raises(InvalidWordError):
        BaseBWord((7,), 5)


def test_period_word_examples():
    assert str(period_word(10, 7)) == "142857"
    assert str(period_word(10, 3)) == "3"
    assert str(period_word(2, 3)) == "01"
    assert str(period_word(10, 1)) == "0"


def test_period_word_requires_coprimality():
    with pytest.raises(InvalidWordError):
        period_word(10, 6)


def test_multiplicative_order():
    assert multiplicative_order(10, 7) == 6
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(10, 1) == 1
    with pytest.raises(InvalidWordError) as exc:
        multiplicative_order(10, 0)
    assert str(exc.value) == "q must be >= 1, got 0"


def test_multiplicative_order_matches_a_direct_search():
    # the loop has no guard: Euler's theorem bounds it by phi(q) <= q
    for b in range(2, 17):
        for q in range(1, 301):
            if gcd(b, q) == 1:
                n = next(n for n in range(1, q + 1) if pow(b, n, q) == 1 % q)
                assert multiplicative_order(b, q) == n, (b, q)


@pytest.mark.parametrize("value", [100, -1])
def test_word_from_value_refuses_what_does_not_fit(value):
    assert word_from_value(99, 10, 2).digits == (9, 9)
    with pytest.raises(InvalidWordError) as exc:
        word_from_value(value, 10, 2)
    assert str(exc.value) == f"{value} does not fit in 2 base-10 digits"


def test_verify_cyclic_group_decimal_seventh():
    report = verify_cyclic_group(10, 7)
    assert report.ok
    assert tuple(str(m) for m in report.multiples) == (
        "142857",
        "285714",
        "428571",
        "571428",
        "714285",
        "857142",
        "000000",
    )


def test_verify_cyclic_group_edge_cases():
    assert verify_cyclic_group(10, 1).ok
    report = verify_cyclic_group(10, 3)
    assert report.ok
    assert [str(m) for m in report.multiples] == ["3", "6", "0"]


def test_verify_cyclic_group_bound_comes_before_the_period(monkeypatch):
    # the period search is itself O(q), so the bound must come first
    def no_period(b, q):
        raise AssertionError(f"searched the period of 1/{q}")

    monkeypatch.setattr(baseb, "period_word", no_period)
    with pytest.raises(ResourceBoundError, match="^q=501 exceeds demo-base bound 500$"):
        verify_cyclic_group(10, 501)
    monkeypatch.undo()
    assert verify_cyclic_group(3, 500).ok  # q at the bound is accepted


def _canonical_class(word: BaseBWord) -> BaseBWord:
    if all(d == word.base - 1 for d in word.digits):
        return BaseBWord((0,) * len(word.digits), word.base)
    return word


def test_addition_is_value_addition_mod_b_n_minus_1():
    # the word -> value map is an isomorphism onto the integers mod b^n - 1
    for base, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        mod = base**n - 1
        words = [word_from_value(v, base, n) for v in range(mod)]
        for u, v in itertools.product(words, repeat=2):
            s = circ_add_base_b(u, v)
            assert s == _canonical_class(s)  # result is always canonical
            assert s.value() % mod == (u.value() + v.value()) % mod


def test_addition_associative_and_commutative_exhaustive():
    for base, n in ((2, 3), (3, 2)):
        words = [word_from_value(v, base, n) for v in range(base**n - 1)]
        for u, v in itertools.product(words, repeat=2):
            assert circ_add_base_b(u, v) == circ_add_base_b(v, u)
        for u, v, w in itertools.product(words, repeat=3):
            lhs = circ_add_base_b(circ_add_base_b(u, v), w)
            rhs = circ_add_base_b(u, circ_add_base_b(v, w))
            assert lhs == rhs

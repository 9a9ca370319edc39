import itertools
from math import gcd

import pytest

from circfib import orderq
from circfib.errors import InvalidWordError, ResourceBoundError
from circfib.fibcore import (
    fib,
    format_word,
    is_admissible,
    parse_word,
    rotate,
    valuation,
    zeckendorf,
)
from circfib.group import add, canonical, d_value, enumerate_elements, identity, scalar_mul
from circfib.rewrite import phi_pair, span_order
from circfib.orderq import (
    minimal_even_length,
    multiples_match,
    oplus,
    p_group,
    pi_subgroup_index,
    pi_words,
    primitive_period,
    verify_pi_multiples,
)


def test_minimal_even_length_examples():
    assert minimal_even_length(4) == 6
    assert minimal_even_length(3) == 8
    assert minimal_even_length(2) == 6
    with pytest.raises(InvalidWordError):
        minimal_even_length(1)


def test_minimal_even_length_cross_check():
    # the canonical length is also twice the least parameter whose d the
    # order divides
    for q in range(2, 13):
        ell = 1
        while d_value(ell) % q != 0:
            ell += 1
        assert minimal_even_length(q) == 2 * ell, q


def test_minimal_even_length_scan_limit(monkeypatch):
    # q = 89 first repeats at n = 44
    monkeypatch.setattr(orderq, "_SCAN_LIMIT", 10)
    message = "no admissible period length found for q=89 up to 10"
    with pytest.raises(ResourceBoundError, match=message):
        minimal_even_length(89)


def test_pi_words_top_digits_are_zero():
    # the proof in pi_words: the top digit of P and the top two of P' are
    # 0, so neither wrap pair is 1-1
    for q in range(2, 401):
        pi, pi_prime = pi_words(q)
        assert pi[-1] == 0 and pi_prime[-2:] == (0, 0), q


def test_pi_words_examples():
    assert tuple(map(format_word, pi_words(4))) == ("000100", "001000")
    assert tuple(map(format_word, pi_words(3))) == ("00010100", "00101000")
    assert tuple(map(format_word, pi_words(2))) == ("010010", "100100")


def test_pi_words_are_admissible_and_rotation_related():
    for q in range(2, 9):
        pi, pi_prime = pi_words(q)
        assert is_admissible(pi) and is_admissible(pi_prime)
        assert rotate(pi_prime) == pi
        n = minimal_even_length(q)
        assert len(pi) == n == len(pi_prime)


def test_verify_pi_multiples_small_q():
    for q in (2, 3, 4, 5):
        report = verify_pi_multiples(q)
        assert report.multiples_match, q
        assert report.rotation_match, q
        assert set(report.satisfiers) == {report.pi, report.pi_prime}, q
        assert report.ok


def multiples_match_by_add(w, q):
    # i*w by iterated word-level add, the oracle for the residue route
    n = len(w)
    value = valuation(w)
    acc = w
    for i in range(1, q + 1):
        if i > 1:
            acc = add(acc, w)
        if i * value >= fib(n):
            return False
        target = zeckendorf(i * value, n)
        if not is_admissible(target) or acc != canonical(target):
            return False
    return True


def test_multiples_match_matches_iterated_add():
    for q in range(2, 7):
        outcomes = {}
        for w in p_group(q):
            outcomes[w] = multiples_match(w, q)
            assert outcomes[w] == multiples_match_by_add(w, q), (q, w)
        # both outcomes occur: the distinguished pair matches, others do not
        assert {w for w, ok in outcomes.items() if ok} == set(pi_words(q)), q


def test_pi_multiples_chain_values():
    # q=4: the multiples of P are the words of value 5, 10, 15, 20
    pi, _ = pi_words(4)
    acc = pi
    values = [valuation(acc)]
    for _ in range(3):
        acc = add(acc, pi)
        values.append(valuation(acc))
    assert values == [5, 10, 15, 20]
    assert acc == identity(3)


def test_p_group_sizes():
    assert len(p_group(2)) == 4
    assert len(p_group(3)) == 9
    assert len(p_group(4)) == 16


def test_p_group_members():
    # the lattice construction against a filter built from iterated
    # word-level add
    for q in (2, 3, 4, 5, 7):
        n = minimal_even_length(q)
        ident = identity(n // 2)
        expected = []
        for w in enumerate_elements(n // 2):
            acc = w
            for _ in range(q - 1):
                acc = add(acc, w)
            if acc == ident:
                expected.append(w)
        assert p_group(q) == expected, q
        assert ident in expected


def test_p_group_matches_enumeration_oracle():
    # every element at the canonical length, kept when q times its Z[phi]
    # pair is zero modulo phi^n - 1
    for q in range(2, 8):
        n = minimal_even_length(q)
        expected = []
        for w in enumerate_elements(n // 2):
            x, y = phi_pair(w)
            if span_order(n, (q * x, q * y)) == 1:
                expected.append(w)
        got = p_group(q)
        assert got == expected, q
        assert [primitive_period(w) for w in got] == [primitive_period(w) for w in expected], q


def test_p_group_resource_bound(monkeypatch):
    # the ceiling on q^2 words of n digits is refused before any decode:
    # q = 78 (n = 168, 1,022,112 digits) is the least q past it, and
    # q = 90 (n = 120, 972,000 digits) the largest under it
    def no_decode(*args):
        raise AssertionError("decoded a word past the ceiling")

    monkeypatch.setattr(orderq, "decode_pair", no_decode)
    for q, n in ((997, 1996), (78, 168)):
        message = f"q={q} needs {q * q} words of length {n}, past the order-q group ceiling of 1000000 digits"
        with pytest.raises(ResourceBoundError, match=f"^{message}$"):
            p_group(q)
    monkeypatch.undo()
    assert len(p_group(10)) == 100
    assert len(p_group(90)) == 8100


def test_p_group_ceiling_keeps_every_short_canonical_length():
    # the canonical length of q is at most 24 exactly when q divides
    # F(n) - 1 and F(n-1) - 1 for an even n <= 24, so these q are the
    # divisors of those gcds; the ceiling takes all of them
    qs = set()
    for n in range(2, 25, 2):
        g = gcd(fib(n) - 1, fib(n - 1) - 1)
        qs.update(q for q in range(2, g + 1) if g % q == 0)
    assert len(qs) == 24 and max(qs) == 199
    for q in qs:
        n = minimal_even_length(q)
        assert n <= 24 and q * q * n <= orderq.P_GROUP_CEILING, q


def test_p_group_scans_for_the_canonical_length_once(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return minimal_even_length(q)

    monkeypatch.setattr(orderq, "minimal_even_length", counting)
    for q in (2, 3, 5):
        calls.clear()
        p_group(q)
        assert calls == [q]


def test_oplus_examples():
    assert format_word(oplus(parse_word("010010"), parse_word("01"))) == "010010"
    assert format_word(oplus(parse_word("0001"), parse_word("0001"))) == "0010"
    assert format_word(oplus(parse_word("01"), parse_word("0101"))) == "0101"


def test_oplus_identity_law_mixed_lengths():
    id1 = identity(1)
    for ell in (1, 2, 3, 4):
        for u in enumerate_elements(ell):
            assert oplus(u, id1) == u
            assert oplus(id1, u) == u


def test_oplus_equal_lengths_degenerates_to_add():
    for u in enumerate_elements(2):
        for v in enumerate_elements(2):
            assert oplus(u, v) == add(u, v)


def test_primitive_period():
    assert format_word(primitive_period(parse_word("010101"))) == "01"
    assert format_word(primitive_period(parse_word("000100"))) == "000100"
    assert format_word(primitive_period(parse_word("00010001"))) == "0001"


def test_p_group_primitive_periods_divide_length():
    for w in p_group(4):
        period = primitive_period(w)
        assert len(w) % len(period) == 0
        assert w == period * (len(w) // len(period))


def test_pi_subgroup_index_reported():
    # the index is data, not an assertion; it must divide the group order
    for q in (2, 3, 4):
        index = pi_subgroup_index(q)
        assert index >= 1
        assert (q * q) % index == 0


def closure_index(q, pi, pi_prime):
    # the span of the pair as the closure of the q^2 sums i*P + j*P'
    span = {add(scalar_mul(i, pi), scalar_mul(j, pi_prime)) for i in range(q) for j in range(q)}
    return len(p_group(q)) // len(span)


def test_pi_subgroup_index_matches_closure():
    # q = 10's canonical length, 60, is far past what enumeration reaches;
    # p_group and the index both come from the lattice
    for q in (*range(2, 8), 10):
        assert pi_subgroup_index(q) == closure_index(q, *pi_words(q)), q


def test_pi_pair_generates_up_to_200():
    # the index needs no decode, so every q in 2..200 is cheap
    assert [q for q in range(2, 201) if pi_subgroup_index(q) != 1] == []


def test_pi_subgroup_index_matches_closure_on_every_pair(monkeypatch):
    # every real distinguished pair generates (index 1), so the pair is
    # replaced by each pair of order-4 elements to meet non-trivial
    # intersections of the two cyclic subgroups
    elements = p_group(4)
    indices = set()
    for pair in itertools.product(elements, repeat=2):
        monkeypatch.setattr(orderq, "pi_words", lambda q: pair)
        index = pi_subgroup_index(4)
        assert index == closure_index(4, *pair), pair
        indices.add(index)
    assert indices == {1, 2, 4, 8, 16}

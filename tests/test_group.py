import itertools
import operator
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from circfib.errors import (
    InvalidWordError,
    ResourceBoundError,
    StructureMismatchError,
    ZeroWordError,
)
from circfib import rewrite
from circfib.fibcore import (
    as_word,
    fib,
    format_word,
    is_admissible,
    iter_admissible,
    parse_word,
    rotate,
    zeckendorf,
)
from circfib.group import (
    GcdCheck,
    GcdPropertyReport,
    GroupStructure,
    add,
    canonical,
    d_value,
    decompose,
    element_order,
    enumerate_elements,
    gcd_property_report,
    identity,
    neg,
    scalar_mul,
)
from circfib.rewrite import equivalent, normalize, phi_pair, span_order
from circfib.verify import certify_factors, predicted_invariant_factors, repeat_morphism

A004146 = [1, 5, 16, 45, 121, 320, 841, 2205]


def test_identity():
    assert format_word(identity(2)) == "0101"
    assert format_word(identity(1)) == "01"
    assert format_word(identity(3)) == "010101"
    with pytest.raises(InvalidWordError):
        identity(0)


def test_identity_representatives_match_the_generator_form():
    # the per-index form (i + first) % 2 of the alternating words
    for ell in range(1, 41):
        zero_first = tuple(i % 2 for i in range(2 * ell))
        one_first = tuple((i + 1) % 2 for i in range(2 * ell))
        assert identity(ell) == zero_first
        assert rotate(identity(ell)) == one_first
        assert canonical(one_first) == zero_first


def test_canonical():
    assert canonical(parse_word("1010")) == parse_word("0101")
    assert canonical(parse_word("0001")) == parse_word("0001")
    with pytest.raises(ZeroWordError):
        canonical(parse_word("0000"))
    with pytest.raises(InvalidWordError):
        canonical(parse_word("1001"))  # wrap pair, not admissible
    with pytest.raises(InvalidWordError):
        canonical(parse_word("010"))  # odd length


def test_add_examples():
    assert format_word(add(parse_word("0001"), parse_word("0001"))) == "0010"
    assert format_word(add(parse_word("0001"), parse_word("0100"))) == "0101"
    with pytest.raises(InvalidWordError):
        add(parse_word("01"), parse_word("0101"))


def _add_before_bytes(u, v):
    """``add`` before checked digits stayed bytes: two validated tuples,
    summed digit by digit, then the normalization layer."""
    wu, wv = as_word(u), as_word(v)
    if len(wu) != len(wv):
        raise InvalidWordError(f"length mismatch: {len(wu)} vs {len(wv)}")
    return rewrite._normalize_word(tuple(map(operator.add, wu, wv)))


# each word takes its digits from one set: 0/1, the carry-free bytes sum below
# 128, bytes from 128 to 255, the array("Q") path from 256 on, a mix with bools
# and digit strings, or all zeros
_ADD_DIGITS = (
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=128, max_value=255),
    st.integers(min_value=256, max_value=10**12),
    st.one_of(
        st.integers(min_value=0, max_value=300), st.booleans(), st.sampled_from(["0", "1", "7", "200"])
    ),
    st.just(0),
)


@st.composite
def _add_case(draw):
    n = draw(st.sampled_from((2, 4, 6, 24, 240)))
    m = n if draw(st.integers(min_value=0, max_value=9)) else draw(st.sampled_from((2, 3, 4)))
    words = (st.lists(draw(st.sampled_from(_ADD_DIGITS)), min_size=k, max_size=k) for k in (n, m))
    return tuple(tuple(draw(w)) for w in words)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_add_case())
@example(((127,) * 24, (127,) * 24))  # the largest carry-free sum
@example(((127, 0), (0, 128)))  # one word past the carry-free range
@example(((0, 0, 0, 0), (0, 0, 0, 0)))  # the zero sum
@example(((0, 300, 0, 0), (0, 0, 0, 0)))  # a tuple and a bytes word
@example(((True, False), ("0", "1")))
@example(((0, 1), (0, 1, 0, 1)))
def test_add_matches_tuple_sum_oracle(case):
    u, v = case
    outcome = _outcome(add, u, v)
    assert outcome == _outcome(_add_before_bytes, u, v)
    if outcome[0] == "ok":
        assert type(outcome[1]) is tuple and all(type(d) is int for d in outcome[1])


def test_canonical_message_prints_the_tuple_form():
    # a word with a digit past 255 is checked as an array("Q"), whose buffer
    # array("Q", [256, 0, 0, 0]).tobytes() holds only bytes 0 and 1: a stray
    # bytes() of it would read as an admissible word of 32 digits
    for word in ((1, 1, 0, 0), b"\x01\x01\x00\x00", "1100", (1, 1, 0, 256), (256, 0, 0, 0)):
        assert not is_admissible(word)
        message = re.escape(f"not an admissible circular word: {tuple(map(int, word))}")
        for call in (canonical, neg, lambda u: scalar_mul(3, u), element_order):
            with pytest.raises(InvalidWordError, match=f"^{message}$"):
                call(word)


@pytest.mark.parametrize(
    "call, digits",
    [
        (lambda: normalize((1.7, 0, 0, 0)), "(1.7, 0, 0, 0)"),  # int() made it (1, 0, 0, 0)
        (lambda: normalize((0.9, 0, 0, 0)), "(0.9, 0, 0, 0)"),  # int() made it the zero word
        (lambda: add((0.6, 1, 0, 0), (0, 0, 1, 0)), "(0.6, 1, 0, 0)"),
        (lambda: scalar_mul(2, (0, 1, 0, 1.5)), "(0, 1, 0, 1.5)"),
    ],
)
def test_truncated_digits_are_refused(call, digits):
    message = re.escape(f"word digits must be integers: {digits}")
    with pytest.raises(InvalidWordError, match=f"^{message}$"):
        call()


def test_add_identity_law_exhaustive():
    for ell in range(1, 5):
        ident = identity(ell)
        for u in enumerate_elements(ell):
            assert add(u, ident) == u


def test_neg_examples():
    assert format_word(neg(parse_word("0001"))) == "0100"
    assert format_word(neg(parse_word("0101"))) == "0101"
    assert format_word(neg(parse_word("001001"))) == "001001"


def test_neg_involution_and_inverse_law():
    for ell in range(1, 5):
        ident = identity(ell)
        for u in enumerate_elements(ell):
            assert neg(neg(u)) == u
            assert add(u, neg(u)) == ident
            # the complement oracle: 1^n is in the identity class
            assert neg(u) == normalize(tuple(1 - d for d in u))


def test_scalar_mul_examples():
    assert format_word(scalar_mul(2, parse_word("000100"))) == "010010"
    assert scalar_mul(0, parse_word("000100")) == identity(3)
    assert format_word(scalar_mul(4, parse_word("000100"))) == "010101"
    u = parse_word("0001")
    assert scalar_mul(-1, u) == neg(u)
    assert scalar_mul(-3, u) == neg(scalar_mul(3, u))


def _multiples_by_add(u, count):
    # [0*u, 1*u, ..., count*u] by iterated word-level add, the oracle for
    # the residue route of scalar_mul and element_order
    out = [identity(len(u) // 2)]
    for _ in range(count):
        out.append(add(out[-1], u))
    return out


def test_scalar_mul_matches_iterated_add():
    for ell in (1, 2, 3):
        e = predicted_invariant_factors(ell)[0]
        for u in enumerate_elements(ell):
            up = _multiples_by_add(u, 2 * e)
            down = _multiples_by_add(neg(u), 2 * e)
            for k in range(-2 * e, 2 * e + 1):
                expected = up[k] if k >= 0 else down[-k]
                assert scalar_mul(k, u) == expected, (u, k)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((24, 60, 1000)),
    st.data(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=-(10**30), max_value=10**30),
)
def test_scalar_mul_is_additive_in_large_k(n, data, k1, k2):
    u = zeckendorf(data.draw(st.integers(min_value=1, max_value=fib(n) - 1)), n)
    assume(is_admissible(u))
    assert scalar_mul(k1 + k2, u) == add(scalar_mul(k1, u), scalar_mul(k2, u))


def test_scalar_mul_rejects_non_integer_k():
    with pytest.raises(TypeError):
        scalar_mul(2.0, parse_word("0001"))


def test_enumerate_cardinalities():
    for ell, expected in enumerate(A004146, start=1):
        assert len(enumerate_elements(ell)) == expected


def test_enumerate_is_lex_sorted_and_excludes_other_identity():
    for ell in (2, 3):
        elements = enumerate_elements(ell)
        assert elements == sorted(elements)
        assert identity(ell) in elements
        assert tuple(1 - d for d in identity(ell)) not in elements


def test_enumerate_bound(monkeypatch):
    import circfib.group as group_module

    # --max-ell is the CLI's bound: the library lists up to its ceiling
    assert len(enumerate_elements(11)) == 39601

    # past the listing ceiling nothing is listed
    def no_listing(n):
        raise AssertionError(f"listed the words of length {n}")

    monkeypatch.setattr(group_module, "iter_admissible", no_listing)
    with pytest.raises(ResourceBoundError) as exc:
        enumerate_elements(13)
    assert str(exc.value) == "ell=13 exceeds the listing ceiling 12"


def test_raw_admissible_count_is_order_plus_two():
    for ell in range(1, 7):
        raw = sum(1 for _ in iter_admissible(2 * ell))
        assert raw == len(enumerate_elements(ell)) + 2


def test_zero_word_comes_first_and_ten_power_last():
    # enumerate_elements drops the first and the last word of the stream
    for ell in range(1, 11):
        words = list(iter_admissible(2 * ell))
        assert (words[0], words[-1]) == ((0,) * (2 * ell), (1, 0) * ell)


def test_d_value():
    assert d_value(3) == 4
    assert d_value(6) == 8
    assert d_value(1) == 1
    assert [d_value(ell) for ell in range(1, 9)] == [1, 1, 4, 3, 11, 8, 29, 21]
    with pytest.raises(InvalidWordError) as exc:
        d_value(0)
    assert str(exc.value) == "ell must be >= 1, got 0"


def test_decompose_examples():
    assert decompose(2) == GroupStructure(5, (5, 1), 1)
    assert decompose(3) == GroupStructure(16, (4, 4), 4)
    assert decompose(6) == GroupStructure(320, (40, 8), 8)


@pytest.mark.parametrize("ell", [0, -1])
def test_decompose_refuses_ell_below_one(ell):
    with pytest.raises(InvalidWordError, match=f"ell must be >= 1, got {ell}"):
        decompose(ell)


def test_decompose_matches_prediction():
    # the lattice reading against the enumerated group and its certificate
    for ell in range(1, 11):
        s = decompose(ell)
        elements = enumerate_elements(ell)
        assert s.order == len(elements), ell
        assert s.invariant_factors == certify_factors(elements), ell
        assert s.invariant_factors == predicted_invariant_factors(ell)
        assert s.invariant_factors[0] * s.invariant_factors[1] == s.order
        assert s.invariant_factors[0] % s.invariant_factors[1] == 0


def test_decompose_enumerates_nothing(monkeypatch, capsys):
    from circfib import cli, group, verify, wheels

    def refuse(*args):
        raise AssertionError("enumerated or certified")

    monkeypatch.setattr(group, "enumerate_elements", refuse)
    monkeypatch.setattr(verify, "certify_factors", refuse)
    assert decompose(10) == GroupStructure(15125, (275, 55), 55)
    assert cli.main(["group", "--ell", "10", "--count"]) == 0
    assert cli.main(["group", "--ell", "10", "--structure"]) == 0
    assert capsys.readouterr().out == (
        "ell\torder\n10\t15125\nell\torder\te1\te2\td\n10\t15125\t275\t55\t55\n"
    )
    assert wheels.identity_fiber_report(6).group_order == 320


def test_element_order():
    assert element_order(identity(3)) == 1
    assert element_order(parse_word("0001")) == 5
    assert element_order(parse_word("001001")) == 2


def test_element_order_beyond_a_million():
    w = scalar_mul(1, zeckendorf(12345678901, 60))
    order = element_order(w)
    assert order == 4160200
    ident = identity(30)
    assert scalar_mul(order, w) == ident
    for p in (2, 5, 11, 31, 61):
        assert scalar_mul(order // p, w) != ident, p


def test_certify_factors_needs_a_second_generator():
    # Eight elements of order 4 from Z/4 x Z/4: exponent 4, so e2 = 2, but
    # no element of order 2 is present to serve as the second generator.
    order_four = [u for u in enumerate_elements(3) if element_order(u) == 4]
    assert len(order_four) == 12
    with pytest.raises(StructureMismatchError):
        certify_factors(order_four[:8])


def test_certify_factors_needs_an_exponent_dividing_the_order():
    # one element of order 5 is no group: its order does not divide the count
    with pytest.raises(StructureMismatchError, match="exponent 5 does not divide order 1"):
        certify_factors([(0, 0, 0, 1)])


def test_element_order_matches_iterated_add():
    for ell in range(1, 6):
        e = predicted_invariant_factors(ell)[0]
        for u in enumerate_elements(ell):
            multiples = _multiples_by_add(u, e)
            expected = next(k for k in range(1, e + 1) if multiples[k] == multiples[0])
            assert element_order(u) == expected, u


def test_span_order_matches_iterated_add_on_every_pair():
    # the exponent is a multiple of every order, so these multiples by
    # iterated add cover each cyclic subgroup, and their sums cover the span
    for ell in range(1, 4):
        n, e = 2 * ell, predicted_invariant_factors(ell)[0]
        elements = enumerate_elements(ell)
        multiples = {u: set(_multiples_by_add(u, e)) for u in elements}
        for u, v in itertools.product(elements, repeat=2):
            span = {add(a, b) for a in multiples[u] for b in multiples[v]}
            assert span_order(n, phi_pair(u), phi_pair(v)) == len(span), (u, v)


def test_span_order_closed_forms():
    # no pairs span the trivial group, the pair of 1 (the word 10...0)
    # generates a cyclic subgroup of the exponent's order e1, and 1 with phi
    # span the whole group, of order L(2l) - 2
    lucas = [2, 1]
    while len(lucas) <= 300:
        lucas.append(lucas[-1] + lucas[-2])
    for ell in range(1, 151):
        n = 2 * ell
        assert span_order(n) == 1, ell
        assert span_order(n, (1, 0)) == predicted_invariant_factors(ell)[0], ell
        assert span_order(n, (1, 0), (0, 1)) == lucas[n] - 2, ell
        expected = predicted_invariant_factors(ell)
        assert decompose(ell) == (lucas[n] - 2, expected, d_value(ell)), ell


def test_element_order_refuses_non_elements():
    with pytest.raises(InvalidWordError, match="not an admissible"):
        element_order((1, 1, 0, 0))
    with pytest.raises(ZeroWordError):
        element_order((0, 0, 0, 0))


def test_element_orders_divide_exponent():
    for ell in (2, 3, 4):
        exponent = predicted_invariant_factors(ell)[0]
        for u in enumerate_elements(ell):
            assert exponent % element_order(u) == 0


def test_group_axioms_exhaustive_small():
    for ell in (1, 2, 3):
        elements = enumerate_elements(ell)
        members = set(elements)
        for u, v in itertools.product(elements, repeat=2):
            s = add(u, v)
            assert s in members
            assert s == add(v, u)
        for u, v, w in itertools.product(elements, repeat=3):
            assert add(add(u, v), w) == add(u, add(v, w))


def test_repeat_morphism_examples():
    assert format_word(repeat_morphism(parse_word("01"), 3)) == "010101"
    assert format_word(repeat_morphism(parse_word("0001"), 2)) == "00010001"
    assert format_word(repeat_morphism(parse_word("1010"), 1)) == "0101"
    assert format_word(repeat_morphism(parse_word("100100"), 1)) == "100100"
    with pytest.raises(InvalidWordError):
        repeat_morphism(parse_word("0001"), 0)


def test_repeat_morphism_returns_canonical_elements():
    # repeating a canonical element needs no second check: the result is
    # admissible and its own canonical form, the identity included
    assert repeat_morphism(parse_word("10"), 3) == parse_word("010101")
    for ell, reps in ((1, 3), (2, 2), (3, 2)):
        for u in enumerate_elements(ell):
            image = repeat_morphism(u, reps)
            assert canonical(image) == image


def test_repeat_morphism_is_injective_homomorphism():
    for ell, reps in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        elements = enumerate_elements(ell)
        images = {repeat_morphism(u, reps) for u in elements}
        assert len(images) == len(elements)
        for u, v in itertools.product(elements, repeat=2):
            assert repeat_morphism(add(u, v), reps) == add(
                repeat_morphism(u, reps), repeat_morphism(v, reps)
            )


def test_gcd_property_report():
    report = gcd_property_report(30)
    assert report.ok
    lookup = {(c.m, c.n): c for c in report.pair_checks}
    assert lookup[(6, 3)].lhs == 4 and lookup[(6, 3)].rhs == 4
    assert lookup[(6, 4)].lhs == 1 and lookup[(6, 4)].rhs == 1
    assert any(c.m == 6 and c.lhs == 8 and c.rhs == 8 for c in report.even_index_checks)
    with pytest.raises(InvalidWordError, match="^--max must be >= 2, got 1$"):
        gcd_property_report(1)
    assert gcd_property_report(200).ok
    with pytest.raises(ResourceBoundError, match="^--max=201 exceeds gcd-check bound 200$"):
        gcd_property_report(201)


def test_gcd_property_report_ok_reads_both_check_lists():
    good, bad = GcdCheck(2, 3, 1, 1), GcdCheck(4, 6, 1, 3)
    assert GcdPropertyReport((good, good), (good,)).ok
    assert GcdPropertyReport((), ()).ok
    assert not GcdPropertyReport((good, bad), (good,)).ok
    assert not GcdPropertyReport((good,), (bad, good)).ok


# Type and message of each public operation on each malformed input, pinned
# from the release that validated inputs at every layer; validating once at
# the boundary must keep them.  A non-error outcome is the return value.
_CONTRACT_INPUTS = {
    "empty": ((), (0, 1)),
    "negative digit": ((0, -1, 0, 1), (0, 1, 0, 1)),
    "odd length": ((0, 1, 0), (1, 0, 0)),
    "zero word": ((0, 0, 0, 0), (0, 0, 0, 0)),
    "length mismatch": ((0, 1), (0, 1, 0, 1)),
    "non-admissible": ((1, 1, 0, 0), (0, 2, 0, 0)),
}
_CONTRACT_OPS = {
    "add": add,
    "neg": lambda u, v: neg(u),
    "scalar_mul": lambda u, v: scalar_mul(3, u),
    "normalize": lambda u, v: normalize(u),
    "equivalent": equivalent,
    "is_admissible": lambda u, v: is_admissible(u),
}
_EVEN_LENGTH = ("InvalidWordError", "normalization requires even length, got 3")
_ELEMENT_LENGTH = ("InvalidWordError", "group elements have even length, got 3")
_EMPTY = ("InvalidWordError", "word must have length >= 1")
_NEGATIVE = ("InvalidWordError", "word digits must be nonnegative: (0, -1, 0, 1)")
_ZERO = ("ZeroWordError", "the zero word is not a group element")
_MISMATCH = ("InvalidWordError", "length mismatch: 2 vs 4")
_NOT_ADMISSIBLE = ("InvalidWordError", "not an admissible circular word: (1, 1, 0, 0)")
_CONTRACT = {
    "add": (_EMPTY, _NEGATIVE, _EVEN_LENGTH, _ZERO, _MISMATCH, (0, 1, 0, 1)),
    "neg": (_EMPTY, _NEGATIVE, _ELEMENT_LENGTH, _ZERO, (0, 1), _NOT_ADMISSIBLE),
    "scalar_mul": (_EMPTY, _NEGATIVE, _ELEMENT_LENGTH, _ZERO, (0, 1), _NOT_ADMISSIBLE),
    "normalize": (_EMPTY, _NEGATIVE, _EVEN_LENGTH, _ZERO, (0, 1), (0, 0, 1, 0)),
    "equivalent": (_EMPTY, _NEGATIVE, _EVEN_LENGTH, _ZERO, _MISMATCH, False),
    "is_admissible": (_EMPTY, _NEGATIVE, True, True, True, False),
}
# the same digits as a list, a one-shot generator and a "0101"-style string
_FORMS = {"list": list, "generator": iter, "string": lambda d: "".join(map(str, d))}


@pytest.mark.parametrize(
    "op, case, form",
    [
        (op, case, form)
        for op in _CONTRACT_OPS
        for case in _CONTRACT_INPUTS
        for form in _FORMS
        if not (form == "string" and case == "negative digit")  # no such string
    ],
)
def test_validation_error_contract(op, case, form):
    u, v = _CONTRACT_INPUTS[case]
    convert = _FORMS[form]
    try:
        outcome = _CONTRACT_OPS[op](convert(u), convert(v))
    except (InvalidWordError, ZeroWordError) as exc:
        outcome = (type(exc).__name__, str(exc))
    assert outcome == dict(zip(_CONTRACT_INPUTS, _CONTRACT[op]))[case]

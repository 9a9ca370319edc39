import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from circfib.errors import (
    InvalidWordError,
    ResourceBoundError,
    StructureMismatchError,
    ZeroWordError,
)
from circfib.fibcore import fib, format_word, is_admissible, iter_admissible, parse_word, zeckendorf
from circfib.group import (
    GroupStructure,
    add,
    canonical,
    certify_factors,
    d_value,
    decompose,
    element_order,
    enumerate_elements,
    gcd_property_report,
    identity,
    neg,
    predicted_invariant_factors,
    repeat_morphism,
    scalar_mul,
)
from circfib.rewrite import normalize

A004146 = [1, 5, 16, 45, 121, 320, 841, 2205]


def test_identity():
    assert format_word(identity(2)) == "0101"
    assert format_word(identity(1)) == "01"
    assert format_word(identity(3)) == "010101"
    with pytest.raises(InvalidWordError):
        identity(0)


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


def test_enumerate_bound():
    with pytest.raises(ResourceBoundError):
        enumerate_elements(11)
    enumerate_elements(11, max_ell=11)


def test_raw_admissible_count_is_order_plus_two():
    for ell in range(1, 7):
        raw = sum(1 for _ in iter_admissible(2 * ell))
        assert raw == len(enumerate_elements(ell)) + 2


def test_d_value():
    assert d_value(3) == 4
    assert d_value(6) == 8
    assert d_value(1) == 1
    assert [d_value(ell) for ell in range(1, 9)] == [1, 1, 4, 3, 11, 8, 29, 21]


def test_decompose_examples():
    assert decompose(2) == GroupStructure(5, (5, 1), 1)
    assert decompose(3) == GroupStructure(16, (4, 4), 4)
    assert decompose(6) == GroupStructure(320, (40, 8), 8)


def test_decompose_matches_prediction():
    for ell in range(2, 7):
        s = decompose(ell)
        assert s.invariant_factors == predicted_invariant_factors(ell)
        assert s.invariant_factors[0] * s.invariant_factors[1] == s.order
        assert s.invariant_factors[0] % s.invariant_factors[1] == 0


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


def test_element_order_matches_iterated_add():
    for ell in range(1, 6):
        e = predicted_invariant_factors(ell)[0]
        for u in enumerate_elements(ell):
            multiples = _multiples_by_add(u, e)
            expected = next(k for k in range(1, e + 1) if multiples[k] == multiples[0])
            assert element_order(u) == expected, u


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
    with pytest.raises(InvalidWordError):
        gcd_property_report(1)

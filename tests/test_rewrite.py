import itertools

import pytest
from hypothesis import given, settings, strategies as st

from circfib import rewrite
from circfib.errors import (
    InapplicableMoveError,
    InvalidWordError,
    NormalizationError,
    ZeroWordError,
)
from circfib.fibcore import alternating_word, format_word, parse_word, valuation
from circfib.rewrite import (
    Move,
    apply_move,
    applicable_moves,
    class_key,
    crosses_seam,
    equivalent,
    normal_form_by_orbit,
    normalize,
    orbit,
)
from circfib.verify import uniqueness_scan


def test_apply_move_examples():
    assert format_word(apply_move(parse_word("110000"), Move("A", 1))) == "001000"
    assert format_word(apply_move(parse_word("000200"), Move("B", 3))) == "010010"
    # wrap move: positions 3, 0, 1
    assert format_word(apply_move(parse_word("1001"), Move("A", 0))) == "0100"


def test_apply_move_inapplicable():
    with pytest.raises(InapplicableMoveError):
        apply_move(parse_word("0100"), Move("A", 0))
    with pytest.raises(InapplicableMoveError):
        apply_move(parse_word("0100"), Move("B", 0))


def test_backward_moves_invert_forward():
    w = parse_word("020111")
    for move in applicable_moves(w):
        out = apply_move(w, move)
        back = Move(move.rule, move.position, not move.forward)
        assert apply_move(out, back) == w, move


def test_length_preserved():
    w = parse_word("000200")
    for move in applicable_moves(w):
        assert len(apply_move(w, move)) == len(w)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=12))
def test_non_seam_moves_preserve_valuation(digits):
    w = tuple(digits)
    n = len(w)
    for move in applicable_moves(w):
        if crosses_seam(move, n):
            continue
        assert valuation(apply_move(w, move)) == valuation(w), move


def test_orbit_identity_class():
    result = orbit(parse_word("1111"), 2, 10**6)
    admissible = result.admissible_members()
    assert parse_word("0101") in admissible
    assert parse_word("1010") in admissible
    assert not result.truncated


def test_orbit_identity_class_no_other_admissible():
    result = orbit(parse_word("0101"), 2, 10**6)
    assert result.admissible_members() == {parse_word("0101"), parse_word("1010")}


def test_orbit_odd_all_ones_has_no_admissible():
    result = orbit(parse_word("111"), 2, 10**6)
    assert not result.truncated
    assert result.admissible_members() == set()


def test_orbit_truncation_flagged():
    result = orbit(parse_word("020111"), 3, 10)
    assert result.truncated
    assert len(result.words) >= 10


def test_orbit_truncation_keeps_bfs_order():
    # The members kept by a truncated search depend on the order in which
    # moves are tried: (position, rule, direction).
    result = orbit((1, 1, 1, 1), 2, 5)
    assert result.words == {
        (0, 0, 2, 1), (0, 2, 1, 0), (1, 1, 1, 1), (2, 0, 1, 2), (2, 2, 0, 1),
    }
    assert orbit(parse_word("020111"), 3, 10).words == {
        (0, 0, 1, 1, 1, 2), (0, 1, 0, 3, 0, 1), (0, 2, 0, 0, 0, 2),
        (0, 2, 0, 1, 1, 1), (0, 2, 0, 2, 2, 0), (0, 2, 1, 2, 0, 1),
        (0, 3, 1, 0, 1, 1), (1, 1, 0, 1, 1, 2), (1, 2, 0, 1, 0, 0),
        (2, 1, 0, 1, 0, 1),
    }


def test_applicable_moves_order():
    moves = applicable_moves(parse_word("1111"))
    assert [(m.rule, m.position, m.forward) for m in moves] == [
        ("A", 0, True), ("A", 0, False), ("B", 0, False),
        ("A", 1, True), ("A", 1, False), ("B", 1, False),
        ("A", 2, True), ("A", 2, False), ("B", 2, False),
        ("A", 3, True), ("A", 3, False), ("B", 3, False),
    ]


def test_orbit_digit_cap_validation():
    with pytest.raises(InvalidWordError):
        orbit(parse_word("0003"), 2)


def test_normalize_examples():
    assert format_word(normalize(parse_word("0002"))) == "0010"
    assert format_word(normalize(parse_word("1111"))) == "0101"
    assert format_word(normalize(parse_word("0101"))) == "0101"
    assert format_word(normalize(parse_word("020111"))) == "010010"


def test_normalize_errors():
    with pytest.raises(InvalidWordError):
        normalize(parse_word("111"))
    with pytest.raises(ZeroWordError):
        normalize(parse_word("0000"))


def test_normalize_canonicalizes_identity_form():
    assert normalize(parse_word("1010")) == parse_word("0101")
    assert normalize(parse_word("101010")) == parse_word("010101")


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda ell: st.lists(
            st.integers(min_value=0, max_value=2), min_size=2 * ell, max_size=2 * ell
        )
    )
)
def test_normalize_idempotent(digits):
    w = tuple(digits)
    if not any(w):
        return
    nf = normalize(w)
    assert normalize(nf) == nf


def test_normalize_agrees_with_orbit_oracle_exhaustive_n4():
    for w in itertools.product((0, 1, 2), repeat=4):
        if not any(w):
            continue
        members = normal_form_by_orbit(w)
        nf = normalize(w)
        if len(members) == 2:
            assert members == {alternating_word(4, 0), alternating_word(4, 1)}
            assert nf == alternating_word(4, 0)
        else:
            assert members == {nf}, w


def test_uniqueness_scan_n6():
    components, identity_components, ok = uniqueness_scan(6)
    assert ok
    assert identity_components == 1
    assert components == 16  # one component per group element


def test_forward_closure_of_mixed_length_sum():
    # the normalization of this word (a mixed-length sum plus identity)
    # needs seam-crossing moves; under the value-shift moves the forward
    # closure alone reaches the unique admissible form
    start = parse_word("020111")
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for move in applicable_moves(w):
            if not move.forward:
                continue
            out = apply_move(w, move)
            if out not in seen:
                seen.add(out)
                stack.append(out)
    from circfib.fibcore import is_admissible

    admissible = {w for w in seen if is_admissible(w)}
    assert admissible == {normalize(start)}
    assert parse_word("120100") in seen


def test_class_key_is_move_invariant():
    w = parse_word("020111")
    key = class_key(w)
    for move in applicable_moves(w):
        assert class_key(apply_move(w, move)) == key


def test_decode_error_names_pair_and_length(monkeypatch):
    monkeypatch.setattr(rewrite, "_OFFSETS", [])
    with pytest.raises(NormalizationError, match=r"length 6 .*\(7, -3\)"):
        rewrite.decode_pair(7, -3, 6)


def test_equivalent():
    assert equivalent(parse_word("0101"), parse_word("1010"))
    assert equivalent(parse_word("0002"), parse_word("0010"))
    assert not equivalent(parse_word("1000"), parse_word("0001"))
    with pytest.raises(InvalidWordError):
        equivalent(parse_word("01"), parse_word("0101"))

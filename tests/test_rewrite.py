import pytest
from hypothesis import given, settings, strategies as st

from circfib import rewrite
from circfib.errors import (
    InapplicableMoveError,
    InvalidWordError,
    NormalizationError,
    ZeroWordError,
)
from circfib.fibcore import format_word, parse_word, valuation
from circfib.rewrite import (
    Move,
    apply_move,
    applicable_moves,
    equivalent,
    is_zero_residue,
    normalize,
    orbit,
    phi_pair,
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
        # the move's window (k-1, k, k+1) for rule A, (k-2, k, k+1) for
        # rule B stays inside 0..n-1 without wrapping
        low = 1 if move.rule == "A" else 2
        if not low <= move.position < n - 1:
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


def test_uniqueness_scan_n6():
    # one component per group element, each normalized to its one
    # admissible word by the orbit oracle
    for n, group_order in ((4, 5), (6, 16)):
        components, identity_components, ok = uniqueness_scan(n)
        assert ok
        assert identity_components == 1
        assert components == group_order


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
    x, y = phi_pair(w)
    for move in applicable_moves(w):
        mx, my = phi_pair(apply_move(w, move))
        assert is_zero_residue(mx - x, my - y, len(w)), move


@st.composite
def _length_and_pair(draw):
    n = draw(st.sampled_from((2, 4, 6, 24, 60, 1000)))
    if draw(st.booleans()):
        coordinate = st.integers(min_value=-10**40, max_value=10**40)
        return n, (draw(coordinate), draw(coordinate))
    rnd = draw(st.randoms(use_true_random=False))
    return n, phi_pair([rnd.randint(0, 10**9) for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(_length_and_pair())
def test_decode_offset_within_proven_window(case):
    # the lattice shift from the input to its decoded word lies within 2
    # of the rounded quotient in both coordinates, and within 1 for n >= 4
    n, (x, y) = case
    rx, ry = phi_pair(rewrite.decode_pair(x, y, n))
    num1, num2, norm = rewrite._quotient(x, y, n)
    s1, s2, snorm = rewrite._quotient(x - rx, y - ry, n)
    assert s1 % snorm == 0 and s2 % snorm == 0
    bound = 1 if n >= 4 else 2
    assert abs(s1 // snorm - rewrite._iround(num1, norm)) <= bound
    assert abs(s2 // snorm - rewrite._iround(num2, norm)) <= bound


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

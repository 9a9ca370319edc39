import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from circfib import fibcore, rewrite, verify
from circfib.errors import (
    InapplicableMoveError,
    InvalidWordError,
    NormalizationError,
    ResourceBoundError,
    ZeroWordError,
)
from circfib.fibcore import (
    as_word,
    fib,
    format_word,
    is_admissible,
    iter_admissible,
    parse_word,
    valuation,
    zeckendorf,
)
from circfib.group import add, canonical, decompose
from circfib.rewrite import (
    Move,
    apply_move,
    decode_pair,
    equivalent,
    normalize,
    orbit,
    phi_pair,
    span_order,
)
from circfib.verify import move_classes, uniqueness_scan


def applicable_moves(word):
    """All moves (both rules, both directions) that apply to the word, in
    (position, rule, direction) order."""
    w = as_word(word)
    moves = (
        Move(rule, k, forward)
        for k in range(len(w))
        for rule in ("A", "B")
        for forward in (True, False)
    )
    return [
        move for move in moves
        if rewrite._apply(w, *rewrite._consume_produce(move, len(w))) is not None
    ]


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


def _consume_produce_by_hand(move, n):
    """The move table before Counter: each (slot, amount) pair added into
    a dict by hand, so slots that collide mod n accumulate."""
    k = move.position % n
    if move.rule == "A":
        eats, makes = (((k - 1) % n, 1), (k, 1)), (((k + 1) % n, 1),)
    else:
        eats, makes = ((k, 2),), (((k - 2) % n, 1), ((k + 1) % n, 1))
    if not move.forward:
        eats, makes = makes, eats
    consume, produce = {}, {}
    for i, v in eats:
        consume[i] = consume.get(i, 0) + v
    for i, v in makes:
        produce[i] = produce.get(i, 0) + v
    return tuple(consume.items()), tuple(produce.items())


def test_consume_produce_matches_the_accumulating_table():
    # both rules, both directions, positions past both ends, and the
    # lengths n <= 3 where the slots of one move collide mod n
    for n in range(1, 13):
        for k in range(-3, n + 3):
            for rule in ("A", "B"):
                for forward in (True, False):
                    move = Move(rule, k, forward)
                    got = rewrite._consume_produce(move, n)
                    assert got == _consume_produce_by_hand(move, n), (n, move)
    assert rewrite._consume_produce(Move("A", 0), 1) == (((0, 2),), ((0, 1),))
    assert rewrite._consume_produce(Move("B", 1, False), 3) == (((2, 2),), ((1, 2),))


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
    admissible = set(filter(is_admissible, result.words))
    assert parse_word("0101") in admissible
    assert parse_word("1010") in admissible
    assert not result.truncated


def test_orbit_identity_class_no_other_admissible():
    result = orbit(parse_word("0101"), 2, 10**6)
    assert set(filter(is_admissible, result.words)) == {parse_word("0101"), parse_word("1010")}


def test_orbit_odd_all_ones_has_no_admissible():
    result = orbit(parse_word("111"), 2, 10**6)
    assert not result.truncated
    assert not any(map(is_admissible, result.words))


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


@pytest.mark.parametrize("size_cap", [0, -1])
def test_orbit_size_cap_validation(size_cap):
    with pytest.raises(InvalidWordError):
        orbit(parse_word("11"), 2, size_cap)


def test_orbit_size_cap_of_one_keeps_the_word():
    assert orbit(parse_word("11"), 2, 1) == rewrite.OrbitResult(frozenset({(1, 1)}), True)


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


def test_length_past_the_ceiling_is_refused_before_encoding(monkeypatch):
    def no_encoding(word):
        raise AssertionError("phi_pair ran before the ceiling check")

    monkeypatch.setattr(rewrite, "phi_pair", no_encoding)
    message = "^length 100002 exceeds the Fibonacci table ceiling 100000$"
    with pytest.raises(ResourceBoundError, match=message):
        normalize((1,) * 100_002)


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


def _horner_pair(digits):
    """The Z[phi] pair of a word of ints by Horner's rule, read straight
    from the digits, with none of the engine's checks or encodings."""
    x = y = 0
    for d in reversed(digits):
        x, y = y + d, x + y
    return x, y


@st.composite
def _wide_word_pairs(draw):
    """Two words of one even length 2..2,000, digits 0..2, on both sides of
    the length from which phi_pair splits an array: each has one to three
    wide digits, at index 0, 1, n - 1 or anywhere, or one at every step-th
    index, on both sides of the share past which the split falls back to
    Horner's loop.  Below 2^64 they take the array("Q") route, 2^64 the
    int() route."""
    half = fibcore._SPLIT_FROM // 2
    n = 2 * draw(st.one_of(st.integers(half - 1, half + 1), st.integers(1, 1000)))
    words = []
    for _ in range(2):
        digits = [b % 3 for b in draw(st.binary(min_size=n, max_size=n))]
        values = st.sampled_from([256, 10**9, 2**32, 2**63, 2**64 - 1, 2**64])
        wide = draw(st.lists(values, min_size=1, max_size=3))
        if draw(st.booleans()):
            step = draw(st.sampled_from([1, 3, fibcore._SPLIT_DENSE - 1, fibcore._SPLIT_DENSE]))
            positions = range(draw(st.integers(0, step - 1)) % n, n, step)
        else:
            anywhere = st.sampled_from([0, 1, n - 1]) | st.integers(0, n - 1)
            positions = draw(st.lists(anywhere, min_size=1, max_size=3))
        for k, i in enumerate(positions):
            digits[i] = wide[k % len(wide)]
        words.append(tuple(digits))
    return tuple(words)


@settings(deadline=None)
@given(_wide_word_pairs())
@example(((2**64 - 1, 0), (2**64, 1)))
@example(((10**9,) + (0,) * (fibcore._SLICED_FROM - 3), (256,) * (fibcore._SLICED_FROM - 2)))
@example(((0,) * (fibcore._SLICED_FROM - 1) + (2**64 - 1,), (2**64,) * fibcore._SLICED_FROM))
@example(((2**63,) + (1,) * (fibcore._SPLIT_FROM - 2) + (2**32,), (0, 256) * (fibcore._SPLIT_FROM // 2)))
@example(((10**9,) * 2000, (0, 1, 2**64 - 1, 0) * 500))
def test_wide_digit_words_match_horner_oracle(words):
    u, v = words
    n = len(u)
    (xu, yu), (xv, yv) = map(_horner_pair, words)
    nu, nv = decode_pair(xu, yu, n), decode_pair(xv, yv, n)
    assert normalize(u) == nu and normalize(v) == nv
    assert valuation(u) == sum(d * fib(i) for i, d in enumerate(u))
    assert add(u, v) == decode_pair(xu + xv, yu + yv, n)
    assert equivalent(u, v) == (nu == nv)
    assert equivalent(u, nu) and equivalent(nv, v)


def test_uniqueness_scan_n6():
    # one component per group element, each normalized to its one
    # admissible word by the orbit oracle
    for n, group_order in ((4, 5), (6, 16)):
        components, identity_components, ok = uniqueness_scan(n)
        assert ok
        assert identity_components == 1
        assert components == group_order
    # at length 2 the windows of both rules collide mod n
    assert uniqueness_scan(2) == (1, 1, True)


@pytest.mark.parametrize(
    "n, message",
    [(1, "ell must be >= 1, got 0"), (3, "normalization requires even length, got 3")],
)
def test_uniqueness_scan_refuses_an_odd_length(n, message):
    # the identity pair has no length 1; other odd lengths get normalize's message
    with pytest.raises(InvalidWordError, match=f"^{message}$"):
        uniqueness_scan(n)


@pytest.mark.parametrize("n", [9, 11])
def test_uniqueness_scan_refuses_an_odd_length_before_the_search(monkeypatch, n):
    def no_search(length):
        raise AssertionError("move_classes ran before the length check")

    monkeypatch.setattr(verify, "move_classes", no_search)
    with pytest.raises(InvalidWordError, match=f"^normalization requires even length, got {n}$"):
        uniqueness_scan(n)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_move_classes_match_orbit_oracle(n):
    classes = move_classes(n)
    by_orbit = set()
    assigned = set()
    for w in itertools.product((0, 1, 2), repeat=n):
        if any(w) and w not in assigned:
            members = frozenset(x for x in orbit(w, 3).words if max(x) <= 2)
            assigned |= members
            by_orbit.add(members)
    assert {frozenset(c) for c in classes} == by_orbit
    assert len(classes) == len(by_orbit)
    # classes and their members in lexicographic order
    assert all(c == sorted(c) for c in classes)
    firsts = [c[0] for c in classes]
    assert firsts == sorted(firsts)


def _move_classes_by_union_find(n):
    """The partition ``move_classes`` gave before its bitset search: one
    union-find over the base-4 codes of the words with digits at most 3,
    joining each word to its image under every forward rule A move."""
    cap = 3
    base = cap + 1
    places = [base**i for i in range(n)]
    parent = list(range(base**n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for k in range(n):
        eats, makes = map(dict, rewrite._consume_produce(Move("A", k), n))
        states = [0]
        delta = 0
        for i, place in enumerate(places):
            lose, gain = eats.get(i, 0), makes.get(i, 0)
            delta += (gain - lose) * place
            digits = range(lose, min(base, base + lose - gain))
            states = [s + d * place for s in states for d in digits]
        for a in states:
            ra, rb = find(a), find(a + delta)
            if ra != rb:
                parent[ra] = rb
    classes = {}
    for w in itertools.product(range(cap), repeat=n):
        if any(w):
            classes.setdefault(find(sum(d * p for d, p in zip(w, places))), []).append(w)
    return list(classes.values())


@pytest.mark.parametrize("n", range(2, 9))
def test_move_classes_match_union_find_oracle(n):
    # the same classes in the same order, members in the same order
    assert move_classes(n) == _move_classes_by_union_find(n)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_rotated_move_class_is_a_move_class(n):
    classes = {frozenset(c) for c in move_classes(n)}
    for c in classes:
        rotated = c
        for _ in range(n):
            rotated = frozenset(w[-1:] + w[:-1] for w in rotated)
            assert rotated in classes


@pytest.mark.parametrize("n", [4, 6])
def test_rule_b_is_two_rule_a_moves(n):
    # the lemma behind move_classes using rule A only: within digit cap 3,
    # forward B at k is backward A at k-1 and forward A at k, taken in an
    # order whose middle word also stays within the cap
    for k in range(n):
        back, fwd = Move("A", k - 1, False), Move("A", k)
        for window in itertools.product(range(4), repeat=4):
            w = [0] * n
            for offset, d in zip((-2, -1, 0, 1), window):
                w[(k + offset) % n] = d
            w = tuple(w)
            try:
                target = apply_move(w, Move("B", k))
            except InapplicableMoveError:
                continue
            if max(target) > 3:
                continue
            ends = []
            for first, second in ((back, fwd), (fwd, back)):
                try:
                    middle = apply_move(w, first)
                except InapplicableMoveError:
                    continue
                if max(middle) <= 3:
                    ends.append(apply_move(middle, second))
            assert ends and all(end == target for end in ends), (w, k)

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
    admissible = {w for w in seen if is_admissible(w)}
    assert admissible == {normalize(start)}
    assert parse_word("120100") in seen


def test_class_key_is_move_invariant():
    w = parse_word("020111")
    x, y = phi_pair(w)
    for move in applicable_moves(w):
        mx, my = phi_pair(apply_move(w, move))
        assert span_order(len(w), (mx - x, my - y)) == 1, move


@st.composite
def _length_and_pair(draw, lengths=(2, 4, 6, 24, 60, 1000)):
    n = draw(st.sampled_from(lengths))
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


def oracle_decode_pair(x, y, n):
    """The decoder that rebuilt each candidate's whole pair: the Zeckendorf
    word of the candidate's valuation, accepted when ``phi_pair`` of it
    equals the candidate pair."""
    nu = rewrite._modulus_pair(n)
    num1, num2, norm = rewrite._quotient(x, y, n)
    q1, q2 = rewrite._iround(num1, norm), rewrite._iround(num2, norm)
    max_value = fib(n) - 1
    for c1, c2 in rewrite._OFFSETS:
        sx, sy = rewrite._pair_mul((q1 + c1, q2 + c2), nu)
        ax, ay = x - sx, y - sy
        value = ax + 2 * ay
        if value < 1 or value > max_value:
            continue
        candidate = zeckendorf(value, n)
        if phi_pair(candidate) != (ax, ay):
            continue
        if candidate[0] == 1 and candidate[-1] == 1:
            continue
        return canonical(candidate)
    raise NormalizationError(
        f"no admissible word of length {n} found for the pair ({x}, {y}); "
        "the uniqueness assumption may be violated"
    )


def _outcome(decode, x, y, n):
    try:
        return decode(x, y, n)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_length_and_pair(lengths=(2, 4, 6, 24, 60, 240, 1000)))
@example((4, (-12, 1)))  # the first candidate in range has the wrong pair
# greedy pairs whose conjugate lies within 1e-3 of phi or of -1
@example((16, (378, 609)))
@example((16, (609, 987)))
@example((18, (988, 1596)))
@example((18, (1596, 2584)))
def test_decode_pair_matches_pair_rebuilding_oracle(case):
    # the conjugate window accepts exactly the candidates whose rebuilt pair
    # matches
    n, (x, y) = case
    assert _outcome(rewrite.decode_pair, x, y, n) == _outcome(oracle_decode_pair, x, y, n)


def decode_pair_before_records(x, y, n):
    """The decoder before the per-length record held the offsets' shifts
    and the descending Fibonacci pairs: each offset multiplied by the
    modulus on every call, and each candidate built by the validating
    ``zeckendorf``."""
    num1, num2, norm = rewrite._quotient(x, y, n)
    p, q, _, max_value = rewrite._length_table(n)[:4]
    q1, q2 = rewrite._iround(num1, norm), rewrite._iround(num2, norm)
    x0, y0 = x - (q1 * p + q2 * q), y - (q1 * q + q2 * (p + q))
    for c1, c2 in rewrite._OFFSETS:
        ax, ay = x0 - (c1 * p + c2 * q), y0 - (c1 * q + c2 * (p + q))
        value = ax + 2 * ay
        if value < 1 or value > max_value or not rewrite._in_conjugate_window(ax, ay):
            continue
        candidate = zeckendorf(value, n)
        if candidate[0] == 1 and candidate[-1] == 1:
            continue
        return candidate
    raise NormalizationError(
        f"no admissible word of length {n} found for the pair ({x}, {y}); "
        "the uniqueness assumption may be violated"
    )


@st.composite
def _record_case(draw):
    n = draw(st.sampled_from((2, 4, 6, 8, 10, 12, 14, 16, 18, 24, 60, 240, 1000)))
    kind = draw(st.sampled_from(("pair", "lattice", "word")))
    if kind == "pair":
        coordinate = st.integers(min_value=-10**300, max_value=10**300)
        return n, (draw(coordinate), draw(coordinate)), draw(st.booleans())
    if kind == "lattice":  # the zero class
        c = st.integers(min_value=-10**12, max_value=10**12)
        return n, rewrite._pair_mul((draw(c), draw(c)), rewrite._modulus_pair(n)), draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))
    return n, phi_pair([rnd.randint(0, 3) for _ in range(n)]), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_record_case())
@example((4, (-12, 1), True))
@example((2, (0, 0), True))
@example((1000, (10**300, -10**300), True))
def test_decode_pair_matches_decoder_before_records(case):
    # a cleared cache makes the decode build its record (cold), else reuse it
    n, (x, y), cold = case
    if cold:
        rewrite._length_table.cache_clear()
        fibcore._descending_fibs.cache_clear()
    got = _outcome(rewrite.decode_pair, x, y, n)
    assert got == _outcome(decode_pair_before_records, x, y, n)


def _round_half_away_from_zero(p, q):
    """The rounding before halves went up: round(p / q) for q > 0, with
    halves away from zero."""
    if p >= 0:
        return (2 * p + q) // (2 * q)
    return -((-2 * p + q) // (2 * q))


@settings(max_examples=300)
@given(st.integers(), st.integers(min_value=1))
@example(-3, 2)
@example(3, 2)
@example(-(10**40) - 1, 2 * 10**40 + 2)
def test_iround_is_within_a_half(p, q):
    assert abs(Fraction(p, q) - rewrite._iround(p, q)) <= Fraction(1, 2)


def _negative_exact_halves(n, span=60):
    """The pairs in [-span, span]^2 with a quotient numerator that is a
    negative exact half, the only place where the rounding rules differ."""
    out = []
    for x in range(-span, span + 1):
        for y in range(-span, span + 1):
            num1, num2, norm = rewrite._quotient(x, y, n)
            if any(num < 0 and 2 * (num % norm) == norm for num in (num1, num2)):
                out.append((x, y))
    return out


@pytest.mark.parametrize("n, named", [(6, (-60, -58)), (12, (-60, -60)), (18, (-60, 6))])
def test_negative_exact_halves_decode_as_with_rounding_away_from_zero(monkeypatch, n, named):
    # each nonzero residue has one admissible answer, and a zero residue an
    # exact quotient, so where rounding halves up moves the search centre
    # the answer stays
    pairs = _negative_exact_halves(n)
    assert named in pairs
    with monkeypatch.context() as m:
        m.setattr(rewrite, "_iround", _round_half_away_from_zero)
        expected = [_outcome(decode_pair_before_records, x, y, n) for x, y in pairs]
    no_memo = (*rewrite._length_table(n)[:6], None)
    assert [_outcome(rewrite.decode_pair, x, y, n) for x, y in pairs] == expected
    assert [rewrite._decode(x, y, n, no_memo) for x, y in pairs] == expected


def test_length_record_shares_the_descending_pairs():
    for n in (2, 8, 60, 1000):
        rewrite._length_table.cache_clear()
        record = rewrite._length_table(n)
        assert record[5] is fibcore._descending_fibs(n)
        p, q = record[:2]
        assert record[4] == tuple(rewrite._pair_mul(c, (p, q)) for c in rewrite._OFFSETS)


def test_memo_answers_as_a_cold_search():
    # every nonzero {0,1,2}-word decodes the same through a warm memo as
    # from a cleared record, and the memo then holds one word per residue
    for n in (4, 6, 8):
        pairs = [phi_pair(w) for w in itertools.product(range(3), repeat=n) if any(w)]
        rewrite._length_table.cache_clear()
        warm = [rewrite.decode_pair(x, y, n) for x, y in pairs]
        memo = rewrite._length_table(n)[6]
        assert len(memo) == decompose(n // 2).order, n
        assert memo[0, 0] == (0, 1) * (n // 2), n
        cold = []
        for x, y in pairs:
            rewrite._length_table.cache_clear()
            cold.append(rewrite.decode_pair(x, y, n))
        assert warm == cold, n


def test_memo_only_at_short_even_lengths():
    for n in (*range(1, 20), 24, 1000):
        memo = rewrite._length_table(n)[6]
        if n % 2 == 0 and n <= 16:
            assert type(memo) is dict, n
        else:
            assert memo is None, n


def _window_candidates(x, y, n):
    """The greedy words of the offsets that pass the range test and the
    conjugate window, in ``_OFFSETS`` order, the order ``decode_pair`` tries."""
    nu = rewrite._modulus_pair(n)
    num1, num2, norm = rewrite._quotient(x, y, n)
    q1, q2 = rewrite._iround(num1, norm), rewrite._iround(num2, norm)
    out = []
    for c1, c2 in rewrite._OFFSETS:
        sx, sy = rewrite._pair_mul((q1 + c1, q2 + c2), nu)
        ax, ay = x - sx, y - sy
        value = ax + 2 * ay
        if 1 <= value < fib(n) and rewrite._in_conjugate_window(ax, ay):
            out.append(zeckendorf(value, n))
    return out


def _check_one_offset(x, y, n):
    """Exactly one candidate passes the wrap-around test, or (01)^l and
    (10)^l for the identity class, and every candidate that fails it comes
    after the first that passes.  Returns whether one failed it."""
    candidates = _window_candidates(x, y, n)
    wraps = [w[0] == 1 and w[-1] == 1 for w in candidates]
    passing = [w for w, wrap in zip(candidates, wraps) if not wrap]
    decoded = rewrite.decode_pair(x, y, n)
    if decoded == (0, 1) * (n // 2):
        assert sorted(passing) == [(0, 1) * (n // 2), (1, 0) * (n // 2)], (x, y, n)
    else:
        assert passing == [decoded], (x, y, n)
    assert not any(wraps[: wraps.index(False)]), (x, y, n)
    return any(wraps)


def test_exactly_one_offset_on_every_binary_word():
    # every class has an admissible, hence binary, member; a wrap-failing
    # candidate never comes first, so the decoder's wrap-around `continue`
    # is not reached, but such candidates exist
    wrapped = 0
    for ell in range(1, 7):
        for w in itertools.product((0, 1), repeat=2 * ell):
            wrapped += _check_one_offset(*phi_pair(w), 2 * ell)
    assert wrapped > 0


def test_exactly_one_offset_on_large_pairs():
    rnd = random.Random(1)
    wrapped = 0
    for n in (24, 60, 240, 1000):
        for _ in range(500):
            x, y = (rnd.randrange(-10**12 + 1, 10**12) for _ in range(2))
            wrapped += _check_one_offset(x, y, n)
    assert wrapped > 0


def test_conjugate_window_holds_exactly_the_greedy_pair_of_each_valuation():
    # the pairs of one valuation differ by multiples of (-2, 1)
    for n in range(2, 15, 2):
        for value in range(1, fib(n)):
            x, y = phi_pair(zeckendorf(value, n))
            assert rewrite._in_conjugate_window(x, y), (n, value)
            for k in (-3, -2, -1, 1, 2, 3):
                assert not rewrite._in_conjugate_window(x - 2 * k, y + k), (n, value, k)


def test_conjugate_window_is_open():
    # (-1, 0) and (1, -1) have conjugates -1 and phi exactly
    assert not rewrite._in_conjugate_window(-1, 0)
    assert not rewrite._in_conjugate_window(1, -1)
    assert rewrite._in_conjugate_window(0, 0)


def test_above_sqrt5_matches_floats():
    # a == b*sqrt5 only at a == b == 0, so floats decide every other case
    for a in range(-60, 61):
        for b in range(-30, 31):
            assert rewrite._above_sqrt5(a, b) == (a > b * 5**0.5), (a, b)


def test_decode_error_names_pair_and_length(monkeypatch, request):
    # the record reads _OFFSETS only when it is built, so close the window;
    # a warm memo at length 6 would answer before the window runs, so the
    # records are cleared first and again at teardown
    rewrite._length_table.cache_clear()
    request.addfinalizer(rewrite._length_table.cache_clear)
    monkeypatch.setattr(rewrite, "_in_conjugate_window", lambda x, y: False)
    with pytest.raises(NormalizationError, match=r"length 6 .*\(7, -3\)"):
        rewrite.decode_pair(7, -3, 6)


def test_modulus_pair_is_phi_power_minus_one():
    power = (1, 0)  # phi^0
    for n in range(1, 61):
        power = rewrite._pair_mul(power, (0, 1))
        assert rewrite._modulus_pair(n) == (power[0] - 1, power[1]), n


def test_quotient_norm_is_minus_the_norm_of_the_modulus():
    # N(phi^n - 1) = (-1)^n + 1 - L(n), with L the Lucas numbers, is negative for every n >= 1
    lucas = [2, 1]
    while len(lucas) <= 60:
        lucas.append(lucas[-1] + lucas[-2])
    for n in range(1, 61):
        p, q = rewrite._modulus_pair(n)
        assert rewrite._quotient(1, 0, n) == (-(p + q), q, lucas[n] - 1 - (-1) ** n)


def test_decode_at_more_lengths_than_the_record_cache_holds():
    # every even length from 2 to 200 evicts the early per-length records
    # before length 8 is decoded again
    lengths = [*range(2, 201, 2), 8]
    assert len(set(lengths)) > rewrite._length_table.cache_info().maxsize
    decoded = []
    for n in lengths:
        x, y = phi_pair(i * i % 5 for i in range(n))
        got = rewrite.decode_pair(x, y, n)
        assert is_admissible(got), n
        rx, ry = phi_pair(got)
        num1, num2, norm = rewrite._quotient(x - rx, y - ry, n)
        assert num1 % norm == 0 and num2 % norm == 0, n
        decoded.append(got)
    assert decoded[-1] == decoded[lengths.index(8)]


@pytest.mark.parametrize(
    "refuse, n",
    [
        (lambda n: rewrite.decode_pair(1, 0, n), 0),
        (lambda n: span_order(n, (1, 0)), -2),
        (span_order, 0),
    ],
    ids=["decode_pair-0", "span_order--2", "span_order-no-pairs-0"],
)
def test_degenerate_modulus_is_refused(refuse, n):
    with pytest.raises(InvalidWordError, match=f"^degenerate modulus at length {n}$"):
        refuse(n)


@pytest.mark.parametrize("n", [-1, 1, 3, 5, 15, 1001])
def test_decode_pair_refuses_odd_length(n):
    # the window proof covers only even n
    with pytest.raises(InvalidWordError, match=f"^normalization requires even length, got {n}$"):
        rewrite.decode_pair(1, 0, n)


def test_odd_length_admissible_words_hit_each_residue_once():
    # at odd n the norm of phi^n - 1 is -L(n), with L the Lucas numbers, and
    # the L(n) admissible words, the zero word included, have distinct residues
    lucas = [2, 1]
    for n in range(1, 16, 2):
        while len(lucas) <= n:
            lucas.append(lucas[-1] + lucas[-2])
        words = list(iter_admissible(n))
        keys = set()
        for w in words:
            num1, num2, norm = rewrite._quotient(*phi_pair(w), n)
            keys.add((num1 % norm, num2 % norm))
        assert len(words) == len(keys) == norm == lucas[n], n


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_odd_length_move_classes_are_the_residues(n):
    """At odd n the moves cut the nonzero {0,1,2}-words into exactly L(n)
    classes, one per residue modulo phi^n - 1.  Each class holds exactly
    one admissible word, except the class of 1^n, which holds none: its
    residue is zero, and no move reaches the zero word, alone in the zero
    class.  So at odd n the zero word stands for the class of 1^n, and the
    admissible words form Z[phi]/(phi^n - 1), of order L(n)."""
    lucas = [2, 1]
    while len(lucas) <= n:
        lucas.append(lucas[-1] + lucas[-2])

    def key(w):
        num1, num2, norm = rewrite._quotient(*phi_pair(w), n)
        return num1 % norm, num2 % norm

    classes = move_classes(n)
    assert len(classes) == lucas[n]
    keys = []
    for members in classes:
        residues = set(map(key, members))
        assert len(residues) == 1, members
        keys += residues
        admissible = [w for w in members if is_admissible(w)]
        assert len(admissible) == (0 if (1,) * n in members else 1), members
    assert len(set(keys)) == len(keys) == lucas[n]
    assert key((1,) * n) == key((0,) * n) == (0, 0)


def test_equivalent():
    assert equivalent(parse_word("0101"), parse_word("1010"))
    assert equivalent(parse_word("0002"), parse_word("0010"))
    assert not equivalent(parse_word("1000"), parse_word("0001"))
    with pytest.raises(InvalidWordError):
        equivalent(parse_word("01"), parse_word("0101"))


def test_every_lattice_point_decodes_to_the_identity():
    # a zero residue decodes at offset (-1, 0), to (01)^l, never to (10)^l
    rnd = random.Random(19)
    for n in range(2, 201, 2):
        nu = rewrite._modulus_pair(n)
        km = [(rnd.randrange(-10**12 + 1, 10**12), rnd.randrange(-10**12 + 1, 10**12)) for _ in range(50)]
        for x, y in [(0, 0)] + [rewrite._pair_mul(c, nu) for c in km]:
            assert rewrite.decode_pair(x, y, n) == (0, 1) * (n // 2), (x, y, n)


def test_identity_offset_comes_before_its_mirror():
    # on a lattice point the rounded quotient is exact, so offset c leaves
    # the pair -c*(phi^n - 1); (01)^l's offset is tried before (10)^l's
    for n in range(2, 201, 2):
        nu = rewrite._modulus_pair(n)
        pairs = [tuple(-v for v in rewrite._pair_mul(c, nu)) for c in rewrite._OFFSETS]
        ones_odd, ones_even = phi_pair((0, 1) * (n // 2)), phi_pair((1, 0) * (n // 2))
        assert pairs.index(ones_odd) < pairs.index(ones_even), n

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from circfib import rewrite
from circfib.errors import (
    InapplicableMoveError,
    InvalidWordError,
    NormalizationError,
    ZeroWordError,
)
from circfib.fibcore import (
    as_word,
    fib,
    format_word,
    is_admissible,
    parse_word,
    valuation,
    zeckendorf,
)
from circfib.group import canonical
from circfib.rewrite import (
    Move,
    apply_move,
    equivalent,
    move_classes,
    normalize,
    orbit,
    phi_pair,
    span_order,
)
from circfib.verify import uniqueness_scan


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
    # at length 2 the windows of both rules collide mod n
    assert uniqueness_scan(2) == (1, 1, True)


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


def test_decode_error_names_pair_and_length(monkeypatch):
    monkeypatch.setattr(rewrite, "_OFFSETS", [])
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

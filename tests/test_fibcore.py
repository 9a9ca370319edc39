import itertools
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from circfib import fibcore
from circfib.errors import CapacityError, InvalidWordError, ResourceBoundError
from circfib.fibcore import (
    as_word,
    check_balanced,
    classical_fib,
    fib,
    fibonacci_word_prefix,
    format_word,
    is_admissible,
    iter_admissible,
    letter_counts,
    parse_word,
    phi_pair,
    rotate,
    valuation,
    zeckendorf,
)


def is_linear_admissible(word) -> bool:
    """True iff all digits are 0/1 with no adjacent ones, ignoring the wrap."""
    w = as_word(word)
    if any(d > 1 for d in w):
        return False
    return not any(w[i - 1] == 1 and w[i] == 1 for i in range(1, len(w)))


def test_fib_convention():
    assert fib(0) == 1
    assert fib(1) == 2
    assert fib(6) == 21
    assert fib(-1) == 1
    assert fib(-2) == 0
    for k in range(-1, 60):
        assert fib(k - 1) + fib(k) == fib(k + 1)


def test_fib_domain_error():
    with pytest.raises(InvalidWordError):
        fib(-3)


def test_fib_large_exact():
    # exact integers well past 64-bit range
    assert fib(200) == fib(199) + fib(198)
    assert fib(200) > 2**128


def test_fib_refuses_to_grow_past_its_ceiling():
    size = len(fibcore._FIB_CACHE)
    with pytest.raises(ResourceBoundError, match="length 100001 exceeds the Fibonacci table ceiling"):
        fib(fibcore.FIB_CEILING + 1)
    with pytest.raises(ResourceBoundError):
        zeckendorf(1, 10**6)
    assert len(fibcore._FIB_CACHE) == size


def test_classical_fib():
    assert [classical_fib(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert classical_fib(30) == fib(28)
    with pytest.raises(InvalidWordError):
        classical_fib(0)


def test_valuation_examples():
    assert valuation(parse_word("0010")) == 3
    assert valuation(parse_word("010101")) == 20
    assert valuation(parse_word("0002")) == 10


def _phi_pair_by_fibonacci_pairs(word):
    # the pair loop from the low digit, carrying phi^i == fa + fb*phi,
    # before phi_pair read the word by Horner's rule
    x = y = 0
    fa, fb = 1, 0
    for d in word:
        if d:
            x += d * fa
            y += d * fb
        fa, fb = fb, fa + fb
    return x, y


@given(
    st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=2000),
    st.sampled_from([tuple, list, iter, fibcore._digits]),
)
@settings(deadline=None)
@example([0], tuple)
@example([10**9] * 2000, iter)
@example([10**9] * 2000, fibcore._digits)  # dense wide digits: Horner's loop on the array
def test_pair_codec_matches_fibonacci_oracles(digits, form):
    x, y = phi_pair(form(digits))
    assert (x, y) == _phi_pair_by_fibonacci_pairs(digits)
    value = valuation(form(digits))
    assert value == sum(d * fib(i) for i, d in enumerate(digits))
    assert value == x + 2 * y


@st.composite
def _bytes_words(draw):
    # digits up to each side of the 1-, 2- and 8-bit packings (2 is the top
    # of the sums that add builds), on both sides of the length from which
    # phi_pair takes the sliced route
    top = draw(st.sampled_from([1, 2, 3, 4, 255]))
    length = draw(st.integers(1, 4 * fibcore._SLICED_FROM))
    return bytes(b % (top + 1) for b in draw(st.binary(min_size=length, max_size=length)))


# the values that array("Q") holds past the bytes() range, up to its top
_WIDE_DIGITS = (256, 2**32, 2**63, 2**64 - 1)


@st.composite
def _wide_words(draw):
    # the array("Q") that _digits returns for a word with a digit past 255,
    # on both sides of the length from which phi_pair takes the split route
    # and up to 2,000 digits: one to three wide digits, at index 0, 1, n - 1
    # or anywhere, or one at every step-th index, on both sides of the share
    # past which the split route falls back to Horner's loop
    split = fibcore._SPLIT_FROM
    n = draw(st.one_of(st.integers(split - 2, split + 2), st.integers(1, 2000)))
    top = draw(st.sampled_from([1, 3, 255]))
    digits = [b % (top + 1) for b in draw(st.binary(min_size=n, max_size=n))]
    wide = draw(st.lists(st.sampled_from(_WIDE_DIGITS), min_size=1, max_size=3))
    if draw(st.booleans()):
        step = draw(st.sampled_from([1, 2, fibcore._SPLIT_DENSE - 1, fibcore._SPLIT_DENSE]))
        positions = range(draw(st.integers(0, step - 1)), n, step)
    else:
        anywhere = st.sampled_from([0, min(1, n - 1), n - 1]) | st.integers(0, n - 1)
        positions = draw(st.lists(anywhere, min_size=1, max_size=3))
    for k, i in enumerate(positions):
        digits[i] = wide[k % len(wide)]
    return fibcore._digits(digits)


@given(st.one_of(_bytes_words(), _wide_words()))
@settings(deadline=None)
@example(b"\x01" * (fibcore._SLICED_FROM - 1))
@example(b"\x03" * fibcore._SLICED_FROM)
@example(b"\xff" * (fibcore._SLICED_FROM + 3))
@example(b"\x02\x00\x01" * 67)
@example(b"\x04\x03" * 99)
@example(b"\x03\x02" * 2501)  # base-4 text past the 4,300-digit int() limit of Python 3.11+
@example(bytes(i % 3 % 2 for i in range(10**5)))  # and base-2 text
@example(fibcore._digits((2**64 - 1,) + (1,) * (fibcore._SPLIT_FROM - 2) + (256,)))
@example(fibcore._digits((2**32, 256) + (0,) * (fibcore._SPLIT_FROM - 2)))  # a mark above the next's
@example(fibcore._digits((0, 2**63) + (0,) * (fibcore._SPLIT_FROM - 2)))
@example(fibcore._digits((0,) * (fibcore._SPLIT_FROM - 1) + (2**32,)))
@example(fibcore._digits((2**64 - 1,) * 2000))
def test_pair_codec_bytes_routes(word):
    # Horner's loop on the tuple is the reference; the test above checks it
    # against the Fibonacci oracles
    x, y = phi_pair(word)
    assert (x, y) == phi_pair(tuple(word))
    assert valuation(word) == x + 2 * y
    if not isinstance(word, bytes) and len(word) >= fibcore._SPLIT_FROM:
        # the split route itself, or its fallback past the dense share; it
        # reads the Fibonacci table as far as normalize has grown it
        fib(len(word))
        dense = sum(d > 255 for d in word) > len(word) // fibcore._SPLIT_DENSE
        assert fibcore._split_pair(word) == (None if dense else (x, y))


def test_split_route_grows_no_table(monkeypatch):
    # on a table that stops short of the top wide index, as it may before
    # any normalize, the split route declines and Horner's loop answers
    fib(300)
    table = fibcore._FIB_CACHE[:300]
    monkeypatch.setattr(fibcore, "_FIB_CACHE", table)
    for top in (299, 300):
        digits = [1, 0] * 152
        digits[top] = 2**63
        word = fibcore._digits(digits)
        pair = phi_pair(word)
        assert pair == phi_pair(tuple(digits))
        assert fibcore._split_pair(word) == (pair if top < len(table) else None)
    assert len(table) == 300


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: zeckendorf(0, 0), "length must be >= 1, got 0"),
        (lambda: fibonacci_word_prefix(-1), "prefix length must be nonnegative, got -1"),
    ],
    ids=["zeckendorf-length-0", "prefix--1"],
)
def test_codec_input_checks(call, message):
    with pytest.raises(InvalidWordError) as exc:
        call()
    assert str(exc.value) == message


def test_zeckendorf_examples():
    assert format_word(zeckendorf(5, 6)) == "000100"
    assert format_word(zeckendorf(0, 4)) == "0000"
    assert format_word(zeckendorf(18, 8)) == "00010100"


def test_zeckendorf_against_enumeration_oracle():
    # the unique linear-admissible word of length 6 with each valuation
    by_value = {}
    for bits in itertools.product((0, 1), repeat=6):
        if is_linear_admissible(bits):
            assert valuation(bits) not in by_value
            by_value[valuation(bits)] = bits
    assert set(by_value) == set(range(fib(6)))
    for n, w in by_value.items():
        assert zeckendorf(n, 6) == w


def test_zeckendorf_capacity():
    with pytest.raises(CapacityError):
        zeckendorf(fib(6), 6)
    zeckendorf(fib(6) - 1, 6)  # largest value fits


def test_zeckendorf_no_adjacent_ones_small_lengths():
    for length in range(1, 13):
        for n in range(fib(length)):
            w = zeckendorf(n, length)
            assert is_linear_admissible(w), (n, length)
            assert valuation(w) == n


@given(st.integers(min_value=0, max_value=10**9))
def test_zeckendorf_round_trip(n):
    w = zeckendorf(n, 50)
    assert valuation(w) == n


def _zeckendorf_by_fib_calls(n, length):
    # the greedy loop with one fib() call per digit, before it walked a
    # slice of the Fibonacci cache
    digits = [0] * length
    rem = n
    for i in range(length - 1, -1, -1):
        if fib(i) <= rem:
            digits[i] = 1
            rem -= fib(i)
    return tuple(digits)


@given(st.integers(min_value=1, max_value=1200), st.integers(min_value=0))
def test_zeckendorf_matches_fib_call_loop(length, seed):
    top = fib(length)
    for n in (seed % top, top - 1):
        assert zeckendorf(n, length) == _zeckendorf_by_fib_calls(n, length)
    with pytest.raises(CapacityError, match=f"max {top - 1}"):
        zeckendorf(top, length)
    with pytest.raises(InvalidWordError):
        zeckendorf(-1, length)


def _zeckendorf_by_cache_slice(n, length):
    # the greedy loop before it walked the cached descending pairs: a slice
    # of the Fibonacci cache, indexed twice per digit
    fibs = fibcore._FIB_CACHE[2:length + 2]
    digits = [0] * length
    rem = n
    for i in range(length - 1, -1, -1):
        if fibs[i] <= rem:
            digits[i] = 1
            rem -= fibs[i]
    return tuple(digits)


def test_trusted_greedy_matches_cache_slice_loop_below_f12():
    for length in range(1, 13):
        desc = fibcore._descending_fibs(length)
        for n in range(fib(length)):
            assert fibcore._greedy(n, desc) == _zeckendorf_by_cache_slice(n, length), (n, length)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=1000), st.randoms(use_true_random=False))
def test_trusted_greedy_matches_cache_slice_loop(length, rnd):
    fib(length)  # the trusted greedy's caller grows the table first
    desc = fibcore._descending_fibs(length)
    assert [i for i, _ in desc] == list(range(length - 1, -1, -1))
    for n in (0, rnd.randrange(fib(length)), fib(length) - 1):
        assert fibcore._greedy(n, desc) == _zeckendorf_by_cache_slice(n, length), (n, length)
        assert zeckendorf(n, length) == fibcore._greedy(n, desc)


def test_is_admissible():
    assert is_admissible(parse_word("1000"))
    assert not is_admissible(parse_word("1001"))  # wrap pair
    assert is_admissible(parse_word("0101"))
    assert not is_admissible(parse_word("0201"))


def _generator_as_word(digits):
    # the generator-based validation that as_word replaced, as the oracle;
    # text is parsed, and a number that int() would truncate is refused
    digits = tuple(digits)
    w = tuple(int(d) for d in digits)
    if any(int(d) != d for d in digits if not isinstance(d, (str, bytes, bytearray))):
        raise InvalidWordError(f"word digits must be integers: {digits}")
    if not w:
        raise InvalidWordError("word must have length >= 1")
    if any(d < 0 for d in w):
        raise InvalidWordError(f"word digits must be nonnegative: {w}")
    return w


def _generator_is_admissible(word):
    w = _generator_as_word(word)
    if any(d > 1 for d in w):
        return False
    n = len(w)
    return not any(w[i - 1] == 1 and w[i] == 1 for i in range(n))


def _outcome(fn, arg):
    try:
        return "ok", fn(arg)
    except Exception as exc:
        return type(exc), str(exc)


def _generator(digits):
    return (d for d in digits)


# digits on both sides of the bytes() range 0..255 and of array("Q")'s
# 0..2^64 - 1, and the non-int digits that int() converts or refuses
_ODD_DIGIT = st.one_of(
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([254, 255, 256, 10**9, 2**63, 2**64 - 1, 2**64]),
    st.booleans(),
    st.floats(min_value=-2, max_value=300, allow_nan=False),
    st.sampled_from(["0", "1", "12", "-1", "x"]),
)


@given(
    st.one_of(
        st.lists(st.integers(min_value=-2, max_value=3), max_size=10),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10),
        st.lists(st.integers(), min_size=1, max_size=3),
        st.lists(_ODD_DIGIT, max_size=6),
        st.text(alphabet="0123456789", max_size=6),
        st.binary(max_size=6),
        st.binary(max_size=6).map(bytearray),
    ),
    st.sampled_from([tuple, list, _generator]),
)
@example([], tuple)
@example([1], tuple)
@example([0], tuple)
@example([-1], tuple)
@example([1, 1], tuple)
@example([1, 0], tuple)
@example([0, 1], _generator)
@example([0, -1, 0], tuple)
@example([254, 255], tuple)
@example([256], tuple)
@example([0, 10**9], _generator)
@example([True, False], tuple)
@example([1.5, 0.0], tuple)
@example([1.5, 0.9, 2], tuple)
@example([-0.5], tuple)
@example([Fraction(3, 2)], tuple)
@example([Fraction(2, 1), 2.0, True, "3"], tuple)
@example([0.9, "x"], tuple)
@example([2**64 - 1, 0], tuple)
@example([2**64, -1], tuple)
@example([-1, 2**64], tuple)
@example([True, 300], tuple)
@example([300, 2.0], tuple)
@example([300, Fraction(2, 1)], tuple)
@example([300, "7"], tuple)
@example([300, 1.5], tuple)
@example("0101", lambda digits: digits)
@example(b"\x01\x00", lambda digits: digits)
@example(bytearray(b"\x00\x02"), lambda digits: digits)
def test_word_checks_match_generator_versions(digits, form):
    # each check gets a fresh copy, so a generator is consumed once per call
    outcome = _outcome(as_word, form(digits))
    assert outcome == _outcome(_generator_as_word, form(digits))
    if outcome[0] == "ok":  # bools and floats come back as plain ints
        assert all(type(d) is int for d in outcome[1])
    assert _outcome(is_admissible, form(digits)) == _outcome(_generator_is_admissible, form(digits))


def _is_admissible_by_max(w):
    """``_is_admissible`` before it tested binarity with translate: max() of
    the bytes."""
    try:
        b = bytes(w)
    except ValueError:
        return False
    return max(b) <= 1 and not (b[0] & b[-1] or b"\x01\x01" in b)


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=2, max_value=255),
            st.integers(min_value=256, max_value=10**9),
        ),
        min_size=1,
        max_size=10,
    )
)
@example([1, 0, 1, 0])
@example([1, 0, 2, 0])
@example([0, 1, 0, 256])
def test_is_admissible_on_bytes_and_tuples_matches_max_form(digits):
    w = tuple(digits)
    expected = _is_admissible_by_max(w)
    assert fibcore._is_admissible(w) is expected
    assert fibcore._is_admissible(fibcore._digits(w)) is expected  # bytes or array("Q")
    if max(w) <= 255:
        assert fibcore._is_admissible(bytes(w)) is expected


def test_rotate():
    assert format_word(rotate(parse_word("001000"))) == "000100"
    assert rotate((0,)) == (0,)
    assert format_word(rotate(parse_word("1000"))) == "0100"


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
def test_rotate_order(digits):
    w = tuple(digits)
    out = w
    for _ in range(len(w)):
        out = rotate(out)
    assert out == w


def test_fibonacci_word():
    assert fibonacci_word_prefix(13) == "abaababaabaab"
    assert fibonacci_word_prefix(0) == ""
    assert fibonacci_word_prefix(8) == "abaababa"


def test_fibonacci_word_prefix_threaded():
    # several threads at once: every returned prefix must equal the
    # single-threaded one of its length
    lengths = (13, 100, 1000, 5000)
    reference = fibonacci_word_prefix(max(lengths))
    results = []

    def worker(n):
        results.append((n, fibonacci_word_prefix(n)))

    threads = [threading.Thread(target=worker, args=(n,)) for n in lengths * 3]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert sorted(n for n, _ in results) == sorted(lengths * 3)
    for n, prefix in results:
        assert prefix == reference[:n], (n, len(prefix))


def test_fibonacci_word_prefix_matches_join_iterate():
    # the one-letter join that grew the iterate before str.translate
    word = "a"
    while len(word) < fib(25):
        word = "".join("ab" if c == "a" else "a" for c in word)
    for k in (0, 1, 5, 13, 24, 25):
        assert fibonacci_word_prefix(fib(k)) == word[:fib(k)], k


def test_fibonacci_word_a_count_recurrence():
    # the a-count of the prefix of length Fk is F(k-1)
    for k in range(1, 16):
        prefix = fibonacci_word_prefix(fib(k))
        assert prefix.count("a") == fib(k - 1), k


def test_letter_counts():
    assert letter_counts("abaababa") == (5, 3)
    assert letter_counts("") == (0, 0)
    assert letter_counts("bbb") == (0, 3)
    with pytest.raises(InvalidWordError):
        letter_counts("abc")


def test_check_balanced():
    assert check_balanced(fibonacci_word_prefix(100), 7)
    assert not check_balanced("aabbaa", 2)
    assert check_balanced("aabbaa", 6)  # single factor
    with pytest.raises(InvalidWordError):
        check_balanced("ab", 3)


def _balanced_by_sliding_count(letters, window):
    # the sliding-count loop that prefix sums replaced
    count = letters[:window].count("a")
    lo = hi = count
    for i in range(window, len(letters)):
        count += (letters[i] == "a") - (letters[i - window] == "a")
        lo = min(lo, count)
        hi = max(hi, count)
    return hi - lo <= 1


@given(st.text(alphabet="ab", max_size=60), st.integers(min_value=-1, max_value=62))
@example("", 1)
@example("ab", 0)
@example("ab", 3)
def test_check_balanced_matches_sliding_count(letters, window):
    if 1 <= window <= len(letters):
        assert check_balanced(letters, window) == _balanced_by_sliding_count(letters, window)
    else:
        with pytest.raises(InvalidWordError, match=f"window must be in 1..{len(letters)}"):
            check_balanced(letters, window)


@given(st.text(alphabet="ab", max_size=60), st.integers(min_value=0, max_value=62))
@example("", 1)
@example("aabbaa", 6)
def test_balanced_windows_match_one_check_per_window(letters, k):
    # the windows 1..k from one prefix-sum list, stopping where check_balanced
    # first fails or raises
    windows = range(1, k + 1)
    assert _outcome(lambda s: fibcore._balanced_windows(s, windows), letters) == _outcome(
        lambda s: all(check_balanced(s, w) for w in windows), letters
    )


def _balanced_by_prefix_sums(letters, windows):
    # the prefix-sum route that the set of distinct factors replaced: each
    # factor's a-count is a difference of two prefix sums
    prefix = list(itertools.accumulate((c == "a" for c in letters), initial=0))
    for window in windows:
        if window < 1 or window > len(letters):
            raise InvalidWordError(f"window must be in 1..{len(letters)}, got {window}")
        counts = {b - a for a, b in zip(prefix, prefix[window:])}
        if max(counts) - min(counts) > 1:
            return False
    return True


@st.composite
def _flipped_prefix_and_windows(draw):
    # a Fibonacci prefix with at most one letter flipped, anywhere or in the
    # last 60 letters, where the factors are read off the tail; then a
    # shuffled subset of the windows 1..60, perhaps with an invalid one inside
    n = draw(st.integers(min_value=60, max_value=3000))
    letters = fibonacci_word_prefix(n)
    flip = draw(st.none() | st.integers(0, n - 1) | st.integers(n - 60, n - 1))
    if flip is not None:
        letters = letters[:flip] + {"a": "b", "b": "a"}[letters[flip]] + letters[flip + 1 :]
    windows = draw(st.permutations(range(1, 61)))[: draw(st.integers(0, 60))]
    invalid = draw(st.none() | st.sampled_from([0, n + 1]))
    if invalid is not None:
        windows.insert(draw(st.integers(0, len(windows))), invalid)
    return letters, windows


@given(_flipped_prefix_and_windows())
@settings(deadline=None)
def test_balanced_windows_match_prefix_sums(case):
    letters, windows = case
    assert _outcome(lambda s: fibcore._balanced_windows(s, windows), letters) == _outcome(
        lambda s: _balanced_by_prefix_sums(s, windows), letters
    )


def test_word_text_syntax():
    assert parse_word("010010") == (0, 1, 0, 0, 1, 0)
    assert parse_word("1,0,12") == (1, 0, 12)
    assert format_word((1, 0, 12)) == "1,0,12"
    assert format_word(parse_word("0101")) == "0101"
    assert format_word((9, 0, 1, 0)) == "9010"  # 9 is the largest contiguous digit
    assert format_word((10, 0, 1, 0)) == "10,0,1,0"
    with pytest.raises(InvalidWordError):
        parse_word("")
    with pytest.raises(InvalidWordError):
        parse_word("1,-2")


def _format_word_by_genexpr(word):
    # the printer that one byte translation per word replaced
    w = as_word(word)
    if all(d <= 9 for d in w):
        return "".join(str(d) for d in w)
    return ",".join(str(d) for d in w)


_WORD_FORMS = {"tuple": tuple, "list": list, "generator": lambda ds: (d for d in ds)}


@given(
    st.lists(
        st.one_of(st.integers(min_value=0, max_value=12), st.sampled_from([255, 256, 10**9])),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from(sorted(_WORD_FORMS)),
)
@example([9, 0, 1], "generator")
@example([10, 0, 1], "tuple")
@example([255, 256, 10**9], "list")
def test_format_word_matches_genexpr_printer(digits, form):
    make = _WORD_FORMS[form]
    assert format_word(make(digits)) == _format_word_by_genexpr(make(digits))


@given(st.text(alphabet="0123456789", min_size=1, max_size=40))
@example("0")
def test_format_word_of_digit_text_matches_genexpr_printer(text):
    assert format_word(text) == _format_word_by_genexpr(text) == text


@pytest.mark.parametrize("word", [(), [], "", (0, -1, 2), [-7]])
def test_format_word_error_contract(word):
    assert _outcome(format_word, word)[0] is InvalidWordError
    assert _outcome(format_word, word) == _outcome(_format_word_by_genexpr, word)


def test_iter_admissible_counts_are_lucas():
    # cyclic binary words without adjacent ones are counted by the Lucas numbers
    lucas = {1: 1, 2: 3, 4: 7, 6: 18, 8: 47, 10: 123, 12: 322}
    for n, expected in lucas.items():
        assert sum(1 for _ in iter_admissible(n)) == expected
    # at n = 1 position 0 is its own neighbour: only the zero word is left
    assert list(iter_admissible(1)) == [(0,)]
    with pytest.raises(InvalidWordError):
        list(iter_admissible(0))


def _iter_admissible_by_recursion(n):
    # the generator with one recursive frame per digit that joining two
    # half-length lists replaced
    prefix = [0] * n

    def rec(i):
        if i == n:
            if not (prefix[0] == 1 and prefix[-1] == 1):
                yield tuple(prefix)
            return
        prefix[i] = 0
        yield from rec(i + 1)
        if i == 0 or prefix[i - 1] == 0:
            prefix[i] = 1
            yield from rec(i + 1)
            prefix[i] = 0

    yield from rec(0)


@pytest.mark.parametrize("n", range(1, 21))
def test_iter_admissible_matches_recursive_generator(n):
    assert list(iter_admissible(n)) == list(_iter_admissible_by_recursion(n))


def test_iter_admissible_lex_order():
    words = list(iter_admissible(6))
    assert words == sorted(words)
    assert all(is_admissible(w) for w in words)

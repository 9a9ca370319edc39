"""Fibonacci numeration: digit words, the pair codec, the infinite binary word.

Conventions used throughout the package:

* Fibonacci numbers follow F0 = 1, F1 = 2, Fk = F(k-1) + F(k-2), extended
  backward with F(-1) = 1, F(-2) = 0 (the unique values consistent with the
  recurrence).  The classical sequence f1 = f2 = 1 is exposed separately as
  ``classical_fib``.
* A digit word is a tuple of nonnegative ints.  Index 0 is the leftmost
  character of the text form and the least significant position: "0010" has
  value F2 = 3.  Inside the engine a word is carried as the object that
  checked it (``_digits``), with the same indices: the ``bytes`` when its
  digits are all 0..255, which ``phi_pair`` packs whole from 128 digits
  on; else the ``array("Q")`` when every digit has ``__index__`` and lies
  in 0..2^64 - 1, whose low bytes ``phi_pair`` packs and whose few wide
  digits it adds one by one from 224 digits on; else the tuple of one
  ``int()`` per digit, read by Horner's loop.  Every public function
  returns tuples of ints.
* A circular word is an ordinary digit word read cyclically (indices mod the
  length) with a fixed origin.  Equality is positional: "1000" and "0001"
  are distinct circular words even though they are rotations of each other.
* Words over the two-letter alphabet {a, b} are plain strings.

All arithmetic is exact (Python ints).
"""

from __future__ import annotations

import sys
import threading
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import CapacityError, InvalidWordError, ResourceBoundError

if TYPE_CHECKING:
    from array import array

Word = tuple[int, ...]

_FIB_CACHE = [0, 1, 1, 2]  # _FIB_CACHE[k + 2] == fib(k), seeded from F(-2)
_FIB_LOCK = threading.Lock()
# The table through fib(k) holds about 0.35*k^2 bits (434 MB at k = 10^5),
# and a word of length n reads it through fib(n): longer ones are refused.
FIB_CEILING = 10**5


def fib(k: int) -> int:
    """Fibonacci number Fk with F0 = 1, F1 = 2; defined for -2 <= k <= FIB_CEILING."""
    if k < -2:
        raise InvalidWordError(f"fib index must be >= -2, got {k}")
    if len(_FIB_CACHE) <= k + 2:
        if k > FIB_CEILING:
            raise ResourceBoundError(f"length {k} exceeds the Fibonacci table ceiling {FIB_CEILING}")
        with _FIB_LOCK:
            while len(_FIB_CACHE) <= k + 2:
                _FIB_CACHE.append(_FIB_CACHE[-1] + _FIB_CACHE[-2])
    return _FIB_CACHE[k + 2]


def classical_fib(n: int) -> int:
    """Classical Fibonacci number fn with f1 = f2 = 1; defined for n >= 1."""
    if n < 1:
        raise InvalidWordError(f"classical fib index must be >= 1, got {n}")
    # fn == F(n-2) under the package convention.
    return fib(n - 2)


def as_word(digits) -> Word:
    """Coerce a digit sequence to a validated word tuple of ints: the
    digits that ``_digits`` checked, as a tuple."""
    return tuple(_digits(digits))


def _digits(digits) -> bytes | array | Word:
    """The checked digits of a word, in the form the engine reads.

    Digits 0..255 are checked and converted in C by ``bytes``, and the
    ``bytes`` object itself is returned.  Failing that, a word whose digits
    all have ``__index__`` and lie in 0..2^64 - 1 is checked and converted
    in C by ``array("Q")``, which reads each digit as ``operator.index``
    does, and the array itself is returned, with no copy to a tuple; this
    agrees with ``int()`` for every digit type whose ``__int__`` and
    ``__index__`` agree.  Such an array always holds a digit past 255, and
    ``bytes()`` of it would be its 8-byte buffer, so nothing calls
    ``bytes()`` on it.  Any other word (one with a negative digit, a digit
    of 2^64 or more, a str, a float or a Fraction) takes the per-digit
    ``int`` path, which returns a tuple of ints, with the same errors.  A
    number that ``int`` would truncate, such as 1.5 or Fraction(3, 2), is
    refused.
    """
    w = tuple(digits)
    try:
        b = bytes(w)
    except (TypeError, ValueError):
        # array is a shared library, loaded only by words with a digit past 255
        from array import array

        try:
            return array("Q", w)
        except (TypeError, OverflowError):
            pass
        digits, w = w, tuple(map(int, w))
        # int() parses text, and a number is a digit only when it equals its
        # int(); the per-digit scan runs only when the words differ
        text = (str, bytes, bytearray)
        if w != digits and any(i != d and not isinstance(d, text) for d, i in zip(digits, w)):
            raise InvalidWordError(f"word digits must be integers: {digits}") from None
        if min(w) < 0:
            raise InvalidWordError(f"word digits must be nonnegative: {w}") from None
        return w
    if not b:
        raise InvalidWordError("word must have length >= 1")
    return b


def phi_pair(word) -> tuple[int, int]:
    """Exact pair (x, y) with sum of digit * phi^index == x + y*phi.

    A ``bytes`` word of at least ``_SLICED_FROM`` digits is read by
    ``_sliced_pair``, and an ``array("Q")`` of at least ``_SPLIT_FROM``
    digits by ``_split_pair`` unless it declines; any other word, and any
    iterable of ints, by Horner's rule from the top digit:
    phi*(x + y*phi) = y + (x + y)*phi.
    """
    if isinstance(word, bytes):
        if len(word) >= _SLICED_FROM:
            return _sliced_pair(word)
    elif not isinstance(word, tuple):
        # callers validate; tuples, bytes and arrays are read in place
        if getattr(word, "typecode", None) != "Q":
            word = tuple(word)
        elif len(word) >= _SPLIT_FROM:
            pair = _split_pair(word)
            if pair:
                return pair
    x = y = 0
    for d in reversed(word):
        x, y = y + d, x + y
    return x, y


# The length from which ``_sliced_pair`` beats Horner's loop on bytes of any
# digit width (the two cross near 96 digits on CPython 3.11).
_SLICED_FROM = 128
# The length from which ``_split_pair`` beats Horner's loop on an array with
# one to three wide digits (the two cross near 176 to 192 digits on CPython
# 3.11, so 224 clears both), and the share of wide digits past which the
# loop is faster after all: one in 16, where the two cross at 512 digits
# (near one in 32 at 256 digits and one in 8 at 2000; each wide digit costs
# a find and two products, and each narrow one a share of a packing).
_SPLIT_FROM = 224
_SPLIT_DENSE = 16
# The index of a digit's lowest byte in the 8 bytes of an array("Q") item
_LOW_BYTE = 0 if sys.byteorder == "little" else 7
_NONZERO = bytes.maketrans(bytes(range(256)), b"\x00" + b"\x01" * 255)


def _split_pair(arr: array) -> tuple[int, int] | None:
    """``phi_pair`` of an array("Q") of digits, as the pair of its low bytes
    plus d * phi^i for each digit d > 255 at index i, or None when more
    than one digit in ``_SPLIT_DENSE`` is that wide or the Fibonacci table
    does not reach the top one.

    The wide digits are the items with a nonzero byte above the lowest, so
    C-level byte operations on the array's buffer find them: zero the
    lowest byte of each item, mark every nonzero byte, and ``find`` the
    marks, skipping to the next item after each.  Their low bytes are
    zeroed too, so the word that ``_sliced_pair`` packs keeps the narrow
    digits' width.  Each wide digit adds d * (f(i - 1), f(i)), as phi^i =
    f(i-1) + f(i)*phi with classical f and f(-1) = 1, read from the
    Fibonacci table, where f(i) = ``_FIB_CACHE[i]``.  ``normalize`` has
    grown the table through the length; where it is shorter than the top
    wide index, as it may be on a direct call, the word is left to
    Horner's loop too, so that encoding grows no table (about 0.35*k^2
    bits through fib(k)).
    """
    n = len(arr)
    raw = arr.tobytes()
    marks = bytearray(raw)
    marks[_LOW_BYTE::8] = bytes(n)
    marks = marks.translate(_NONZERO)
    wide, limit = [], n // _SPLIT_DENSE
    j = marks.find(1)
    while j >= 0:
        if len(wide) == limit:
            return None
        wide.append(j >> 3)
        j = marks.find(1, (j | 7) + 1)
    if wide and len(_FIB_CACHE) <= wide[-1]:
        return None
    low = bytearray(raw[_LOW_BYTE::8])
    x = y = 0
    for i in wide:
        d = arr[i]
        low[i] = 0
        x += d * _FIB_CACHE[i - 1] if i else d
        y += d * _FIB_CACHE[i]
    sx, sy = _sliced_pair(low)
    return sx + x, sy + y


def _sliced_pair(w: bytes) -> tuple[int, int]:
    """``phi_pair`` of a bytes word, with every 8-digit slot evaluated at once.

    The digits are packed into one int at s = 1, 2 or 8 bits each, the
    least width that holds the largest.  Eight Horner steps run on all
    slots of 8 digits together, each slot 8*s bits wide; then each round
    merges neighbouring slots as low + phi^span * high, doubling the slot
    width, until one slot holds the whole word.

    No slot spills into the next in any round.  A slot holds a chunk of N
    digits, each at most m < 2^s, in s*N bits.  The chunk's pair is
    sum d_j * phi^j with phi^j = f(j-1) + f(j)*phi (classical f, f(-1) = 1),
    so its components are at most m*f(N) and m*(f(N+1) - 1): 21*m and
    33*m at N = 8.  With f(N+1) <= phi^N < 2^(0.7*N), both are below
    2^(s + 0.7*N) <= 2^(s*N) once N*(s - 0.7) >= s, which holds at N >= 8
    for every s >= 1.  Horner's partial pairs are pairs of shorter chunks,
    and every term of a merge is nonnegative and at most the merged pair,
    so nothing in between is larger; digits past the end of the word are
    zeros, which change no bound.
    """
    if not w.translate(None, b"\x00\x01"):
        s, packed = 1, int(w[::-1].translate(_DIGIT_TEXT), 2)
    elif not w.translate(None, b"\x00\x01\x02\x03"):
        s, packed = 2, int(w[::-1].translate(_DIGIT_TEXT), 4)
    else:
        s, packed = 8, int.from_bytes(w, "little")
    digit_mask, rounds = _slice_plan(len(w), s)
    x = y = 0
    for shift in range(7 * s, -1, -s):
        x, y = y + ((packed >> shift) & digit_mask), x + y
    for width, low, a, b in rounds:
        xh, yh = (x >> width) & low, (y >> width) & low
        x, y = (x & low) + a * xh + b * yh, (y & low) + b * xh + (a + b) * yh
    return x, y


def _slot_mask(stride: int, slots: int, width: int) -> int:
    """The low ``width`` bits of each of ``slots`` slots ``stride`` bits
    apart, stride a multiple of 8, as one bytes repeat: the closed form
    ((1 << stride*k) - 1) // ((1 << stride) - 1) * ((1 << width) - 1)
    divides by numbers as wide as the word, which took 1.4 s for the plan
    of 10^5 digits of width 8."""
    return int.from_bytes(((1 << width) - 1).to_bytes(stride // 8, "little") * slots, "little")


# At most 8 entries.  An entry for n digits of s bits holds about
# n*s*(log2(n/8) + 1) bits, 8 KB at n = 1000 and 1.6 MB at n = 10^5 with
# s = 8, so the cache holds at most 13 MB while words stay within
# FIB_CEILING, the longest that normalize accepts.
@lru_cache(maxsize=8)
def _slice_plan(n: int, s: int) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """For ``_sliced_pair`` on n digits of s bits: the mask of each slot's
    lowest digit, and per merge round the slot width in bits, the mask of
    the low slot of each merged pair, and phi^span as (a, b) = a + b*phi."""
    slots = -(-n // 8)
    digit_mask = _slot_mask(8 * s, slots, s)
    width, a, b = 8 * s, 13, 21  # phi^8 = 13 + 21*phi
    rounds = []
    while slots > 1:
        slots = -(-slots // 2)
        rounds.append((width, _slot_mask(2 * width, slots, width), a, b))
        a, b = a * a + b * b, 2 * a * b + b * b  # (a + b*phi)^2, as phi^2 = 1 + phi
        width *= 2
    return digit_mask, tuple(rounds)


def valuation(word) -> int:
    """Sum of digit * F(index) over the word, read positionally: x + 2y of
    its ``phi_pair`` (x, y), as phi^i = F(i-3) + F(i-2)*phi and F(i) =
    F(i-3) + 2*F(i-2)."""
    x, y = phi_pair(_digits(word))
    return x + 2 * y


def zeckendorf(n: int, length: int) -> Word:
    """Binary word of the given length, no adjacent ones, with value n.

    Greedy from the largest Fibonacci number that fits.  The result is the
    unique such word; n must satisfy 0 <= n < F(length).
    """
    if length < 1:
        raise InvalidWordError(f"length must be >= 1, got {length}")
    if n < 0:
        raise InvalidWordError(f"value must be nonnegative, got {n}")
    top = fib(length)  # also grows the cache through F(length)
    if n >= top:
        raise CapacityError(f"{n} does not fit in {length} digits (max {top - 1})")
    return _greedy(n, _descending_fibs(length))


@lru_cache(maxsize=64)
def _descending_fibs(length: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, fib(i)) for i = length - 1 down to 0, sharing the
    table's ints; the caller has already grown the table through fib(length)."""
    return tuple(zip(range(length - 1, -1, -1), _FIB_CACHE[length + 1:1:-1]))


def _greedy(value: int, desc) -> Word:
    """``zeckendorf`` of a value already known to satisfy 0 <= value < F(len(desc)),
    with desc from ``_descending_fibs``."""
    digits = [0] * len(desc)
    for i, f in desc:
        if f <= value:
            digits[i] = 1
            value -= f
    assert value == 0
    return tuple(digits)


def is_admissible(word) -> bool:
    """True iff all digits are 0/1 and no two cyclically adjacent ones."""
    return _is_admissible(_digits(word))


def _is_admissible(w: bytes | array | Word) -> bool:
    """``is_admissible`` of digits that ``_digits`` has already checked:
    the ``bytes`` word is read in place, a tuple is converted by ``bytes``,
    and an array("Q") is never binary, as it holds a digit past 255."""
    if not isinstance(w, bytes):
        if not isinstance(w, tuple):
            return False
        try:
            w = bytes(w)
        except ValueError:  # a digit above 255 is not binary
            return False
    # on 0/1 digits the wrap pair is the first and last digit
    return not w.translate(None, b"\x00\x01") and not (w[0] & w[-1] or b"\x01\x01" in w)


def rotate(word) -> Word:
    """One circular shift: the last digit moves to the front."""
    w = as_word(word)
    return (w[-1],) + w[:-1]


def parse_word(text: str) -> Word:
    """Parse "010010" (single digits) or "1,0,12" (comma separated)."""
    text = text.strip()
    if not text:
        raise InvalidWordError("empty word text")
    try:
        if "," in text:
            return as_word(int(part) for part in text.split(","))
        return as_word(int(ch) for ch in text)
    except ValueError as exc:
        raise InvalidWordError(f"cannot parse word {text!r}") from exc


def format_word(word) -> str:
    """Inverse of parse_word: contiguous digits when all are <= 9."""
    return _format_word(as_word(word))


_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")


def _format_word(w: Word) -> str:
    """``format_word`` of a word tuple that ``as_word`` has already validated."""
    if max(w) <= 9:
        return bytes(w).translate(_DIGIT_TEXT).decode()
    return ",".join(map(str, w))


_SUBSTITUTION = str.maketrans({"a": "ab", "b": "a"})


def fibonacci_word_prefix(n: int) -> str:
    """Prefix of length n of the fixed point of a -> ab, b -> a.

    Each call iterates the substitution from "a" until the word is long
    enough, and keeps nothing: no caller asks twice for a long prefix.
    """
    if n < 0:
        raise InvalidWordError(f"prefix length must be nonnegative, got {n}")
    word = "a"
    while len(word) < n:
        word = word.translate(_SUBSTITUTION)
    return word[:n]


def letter_counts(letters: str) -> tuple[int, int]:
    """(number of a's, number of b's); rejects other letters."""
    if set(letters) - {"a", "b"}:
        raise InvalidWordError(f"alphabet is {{a, b}}: {letters!r}")
    count_a = letters.count("a")
    return count_a, len(letters) - count_a


def check_balanced(letters: str, window: int) -> bool:
    """True iff all length-``window`` factors have a-counts within 1."""
    return _balanced_windows(letters, (window,))


def _balanced_windows(letters: str, windows) -> bool:
    """``check_balanced`` at each window in turn, stopping at the first
    unbalanced one, with one set of factors for them all."""
    n = len(letters)
    windows = tuple(windows)
    top = max((w for w in windows if 1 <= w <= n), default=1)
    # heads holds the factor of length up to top that starts at each i: top
    # long for i <= n - top, then a suffix of the last top - 1 letters.
    # Every factor of a length w <= top is the first w letters of a head at
    # least w long, so the heads cover every window.  A balanced word, such
    # as a prefix of the Fibonacci word, has at most top + 1 distinct factors
    # of length top (Lothaire 2002, ch. 2), so there the set holds at most
    # 2 * top heads.  Only the distinct counts of each window matter.
    heads = {letters[i : i + top] for i in range(n)}
    for window in windows:
        if window < 1 or window > n:
            raise InvalidWordError(f"window must be in 1..{n}, got {window}")
        counts = {f[:window].count("a") for f in heads if len(f) >= window}
        if max(counts) - min(counts) > 1:
            return False
    return True


def iter_admissible(n: int):
    """Yield all cyclically admissible binary words of length n in lex order.

    Includes the zero word.  The count over all of them is the n-th Lucas
    number (for n >= 2).  Each word is a head of length n // 2 joined to a
    tail of length n - n // 2, both linearly admissible, so beside its
    output the generator holds O(phi^(n/2)) words and recurses nowhere.
    """
    if n < 1:
        raise InvalidWordError(f"length must be >= 1, got {n}")
    if n == 1:  # position 0 is its own neighbour
        yield (0,)
        return
    half, rest = n // 2, n - n // 2
    # shorter, tails: the words of lengths k - 1 and k with no adjacent ones,
    # in lex order, so the first len(shorter) tails start with 0
    shorter, tails = [()], [(0,), (1,)]
    for _ in range(rest - 1):
        shorter, tails = tails, [(0,) + w for w in tails] + [(1, 0) + w for w in shorter]
    after_one = tails[: len(shorter)]
    # fits[head[0]][head[-1]]: a head ending in 1 takes the tails that start
    # with 0, and one starting with 1 only the tails that end with 0
    fits = ((tails, after_one), tuple([t for t in f if not t[-1]] for f in (tails, after_one)))
    for head in tails if half == rest else shorter:
        yield from map(head.__add__, fits[head[0]][head[-1]])

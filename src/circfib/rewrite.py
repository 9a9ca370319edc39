"""Rewriting moves on circular digit words and normalization to Z-form.

Two families of moves act on a circular word w of length n (indices mod n):

* rule A at position k: decrement w[k-1] and w[k], increment w[k+1]
  (the relation F(k-1) + F(k) = F(k+1));
* rule B at position k: subtract 2 from w[k], increment w[k-2] and w[k+1]
  (the relation 2 F(k) = F(k-2) + F(k+1)).

Backward moves are the exact inverses.  Moves are value shifts guarded by
nonnegativity, so they apply on the full alphabet of nonnegative ints, not
just on the binary patterns 110 <-> 001 and 0020 <-> 1001 that they induce
there.  A move's consumed and produced amounts come from one routine
(``_consume_produce``) and are applied by one routine (``_apply``) that
``apply_move`` and the orbit BFS share.

Every nonzero circular word of even length is equivalent, under these
moves, to an admissible word that is unique except for the single orbit
containing 1^n, where (01)^l and (10)^l are both reachable and are
identified; (01)^l is the canonical representative.

``orbit`` explores the class of one word by breadth-first search over
both directions; it serves ``circfib orbit`` and is the reference oracle in
the tests.

``normalize`` is the production normalizer and has one route: validate the
word, map it to its pair in Z[phi] (``fibcore.phi_pair``), and let
``decode_pair`` reconstruct the admissible representative of that pair's
residue modulo (phi^n - 1) by a search over the 25 lattice offsets that a
written bound allows around the quotient.  Of the offsets whose valuation
is in range, an exact integer test of the pair's conjugate embedding picks
the one pair that is the greedy Zeckendorf word of its valuation, so each
decode builds one word (the proof is next to the window proof), never
(10)^l.  What the decoder reads at a length is one cached record,
``_length_table``: the modulus, the norm, the largest valuation, the 25
offsets already multiplied by the modulus, the descending Fibonacci
pairs that the trusted greedy (``fibcore._greedy``) walks to build the
word, and, at even lengths up to 16, a memo of the words already decoded,
keyed by residue (the proof that the key names the residue is next to
``_MEMO_CEILING``).  The public entry points validate once: ``normalize``
and ``equivalent`` call ``fibcore._digits``, ``group.add`` sums two
checked words, and each hands the digits to ``_normalize_word``, the one
layer, as the object that checked them: the ``bytes`` when every digit is
0..255, the ``array("Q")`` when a digit is wider but below 2^64, and else
a tuple (``add``'s sum is a tuple unless both words are below 128, as it
may pass 2^64).  That layer refuses an odd length, the zero word and a
length past the Fibonacci ceiling, and decodes with the record it has read
(``_decode``, which ``decode_pair`` wraps), so one normalize reads
``_length_table`` once.  ``decode_pair`` refuses an odd length too.  The
routes are independent;
``verify.uniqueness_scan`` (criterion 3) checks the normalizer against
``verify.move_classes`` over every {0,1,2}-word at lengths 4, 6 and 8, and
the tests check ``verify.move_classes`` against ``orbit`` and against a
union-find over the same moves.

The residue is also the group element itself, so arithmetic that needs no
intermediate word stays on pairs: ``group.scalar_mul`` (and ``group.neg``,
its k = -1) and ``orderq.multiples_match`` decode k times the pair once per
multiple, and ``span_order`` counts the subgroup that pairs generate by the
index of the lattice they span with the modulus, decoding nothing, for
every element and subgroup order.  Iterated word-level ``group.add`` (digit
sum, then ``normalize``) is their oracle in the tests.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    InapplicableMoveError,
    InvalidWordError,
    NormalizationError,
    ZeroWordError,
)
from .fibcore import Word, _descending_fibs, _digits, _greedy, as_word, fib, phi_pair

if TYPE_CHECKING:
    from array import array


class _Move(NamedTuple):
    rule: str
    position: int
    forward: bool = True


class Move(_Move):
    """A single rewriting move: rule 'A' or 'B', anchor position, direction."""

    __slots__ = ()

    def __new__(cls, rule: str, position: int, forward: bool = True):
        if rule not in ("A", "B"):
            raise InvalidWordError(f"rule must be 'A' or 'B', got {rule!r}")
        return super().__new__(cls, rule, position, forward)


def _consume_produce(move: Move, n: int) -> tuple[tuple, tuple]:
    # A move eats units at some slots, all in stock at once, and makes units
    # at others, as (slot, amount) pairs.  Counter adds the amounts of a slot
    # listed twice, where window positions collide mod n (n <= 3), which
    # keeps forward and backward moves exact inverses of each other.
    k = move.position % n
    if move.rule == "A":
        eats, makes = ((k - 1) % n, k), ((k + 1) % n,)
    else:
        eats, makes = (k, k), ((k - 2) % n, (k + 1) % n)
    if not move.forward:
        eats, makes = makes, eats
    return tuple(Counter(eats).items()), tuple(Counter(makes).items())


def _apply(w: Word, consume, produce) -> Word | None:
    """The word after the move, or None when a consumed amount is missing."""
    for i, v in consume:
        if w[i] < v:
            return None
    out = list(w)
    for i, v in consume:
        out[i] -= v
    for i, v in produce:
        out[i] += v
    return tuple(out)


def apply_move(word, move: Move) -> Word:
    """Apply one move; raises InapplicableMoveError if its guards fail."""
    w = as_word(word)
    out = _apply(w, *_consume_produce(move, len(w)))
    if out is None:
        raise InapplicableMoveError(f"move {move} does not apply to {w}")
    return out


class OrbitResult(NamedTuple):
    """BFS closure of a word under the moves, with a truncation flag."""

    words: frozenset[Word]
    truncated: bool


def orbit(word, digit_cap: int | None = None, size_cap: int = 10**6) -> OrbitResult:
    """Breadth-first closure of the word under all moves, both directions.

    States with any digit above ``digit_cap`` are pruned; by default it is
    one above the larger of 2 and the word's largest digit.  If more than
    ``size_cap`` states are reached the search stops and the result is
    flagged as truncated (never an exception); a cap below 1, which could
    not hold the word itself, is refused.
    """
    w = as_word(word)
    if size_cap < 1:
        raise InvalidWordError(f"size cap {size_cap} below 1")
    least_cap = max(2, max(w))
    if digit_cap is None:
        digit_cap = least_cap + 1
    if digit_cap < least_cap:
        raise InvalidWordError(f"digit cap {digit_cap} below max digit of {w}")
    # every move, in (position, rule, direction) order
    moves = [
        _consume_produce(Move(rule, k, forward), len(w))
        for k in range(len(w))
        for rule in ("A", "B")
        for forward in (True, False)
    ]
    seen = {w}
    queue = deque([w])
    truncated = False
    while queue:
        cur = queue.popleft()
        for consume, produce in moves:
            nxt = _apply(cur, consume, produce)
            if nxt is None or max(nxt) > digit_cap:
                continue
            if nxt not in seen:
                if len(seen) >= size_cap:
                    truncated = True
                    queue.clear()
                    break
                seen.add(nxt)
                queue.append(nxt)
    return OrbitResult(frozenset(seen), truncated)


# --- class invariant in Z[phi] -------------------------------------------
#
# Sending the digit at position i to phi^i identifies a length-n circular
# word with an element of Z[phi] modulo the ideal generated by phi^n - 1,
# because both rules rewrite along identities that hold for the powers of
# phi and the wrap identifies phi^n with 1.  Elements of Z[phi] are pairs
# (x, y) meaning x + y*phi; ``fibcore.phi_pair`` maps a word to its pair.


def _pair_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    x, y = a
    u, v = b
    return (x * u + y * v, x * v + y * u + y * v)


@lru_cache(maxsize=64)
def _length_table(n: int) -> tuple:
    """What decoding at length n reads:
    (p, q, norm, max_value, shifts, desc, memo) with phi^n - 1 = p + q*phi,
    norm the denominator of ``_quotient``, max_value = fib(n) - 1 the
    largest valuation of n digits, shifts the pairs of ``_OFFSETS``
    (c1, c2) times the modulus, in ``_OFFSETS`` order, desc the pairs
    (i, fib(i)) for i = n - 1 down to 0 that the greedy walks
    (``fibcore._descending_fibs``, the same object), and memo the words
    ``decode_pair`` has found, keyed by residue: a dict at even
    n <= ``_MEMO_CEILING``, else None."""
    if n < 1:
        raise InvalidWordError(f"degenerate modulus at length {n}")
    top = fib(n)  # first, so a length past the table's ceiling grows nothing
    p, q = fib(n - 3) - 1, fib(n - 2)  # phi^n = fib(n-3) + fib(n-2)*phi
    # The norm N(phi^n - 1) = p^2 + pq - q^2 = (-1)^n + 1 - L(n), with L the
    # Lucas numbers, is below 0 for every n >= 1: it is -1 at n = 1, and
    # L(n) >= 3 from n = 2 on.  So the denominator is its negation.
    norm = q * q - p * q - p * p
    shifts = tuple(_pair_mul(c, (p, q)) for c in _OFFSETS)
    memo = {} if n % 2 == 0 and n <= _MEMO_CEILING else None
    return p, q, norm, top - 1, shifts, _descending_fibs(n), memo


# The decode memo's key names the residue.  ``_quotient``'s numerators are
# (num1, num2) = (x + y*phi) * -conj(phi^n - 1), a linear map of (x, y) of
# determinant -norm.  A lattice vector (c1 + c2*phi)(phi^n - 1) maps to
# (c1*norm, c2*norm), and a pair whose numerators are both multiples of
# norm has an integral quotient, so it is a lattice vector.  So two pairs
# share (num1 % norm, num2 % norm) exactly when they share a residue.  The
# answer depends only on the residue.  At even n, let S be the admissible
# words other than the zero word and (10)^(n/2): L(n) - 2 words, with L the
# Lucas numbers, and norm = L(n) - 2 residues.  The window proof gives every
# residue a word of S with that residue, so the map from S to residues is
# onto, hence one-to-one, and each residue has one answer, even where
# rounding at an exact half shifts the search order.  The group has 2,205
# elements at n = 16; at n = 24 it has 103,680 and few decodes repeat, so
# longer lengths keep no memo.  Threads that miss on one residue at once
# store the same word, so the memo needs no lock.
_MEMO_CEILING = 16


def _modulus_pair(n: int) -> tuple[int, int]:
    """phi^n - 1 as the pair (p, q), for n >= 1."""
    return _length_table(n)[:2]


def _quotient(x: int, y: int, n: int) -> tuple[int, int, int]:
    """(num1, num2, norm), norm > 0, with (x + y*phi) / (phi^n - 1) equal to
    (num1 + num2*phi) / norm exactly."""
    p, q, norm = _length_table(n)[:3]
    # Multiply through by -conj(phi^n - 1), with conj(p + q*phi) = (p + q) - q*phi.
    return y * q - x * (p + q), x * q - y * p, norm


def _iround(p: int, q: int) -> int:
    # round(p / q) for q > 0, halves up: off by at most 1/2, which is all
    # the window proof below needs
    return (2 * p + q) // (2 * q)


# Offsets (c1, c2) tried around the rounded quotient, nearest first.  At
# even length n >= 2 the admissible representative R of the class lies
# within 2 of it in both coordinates, and within 1 for n >= 4:
#
# * R is a nonzero binary word with no two adjacent ones.  Its real
#   embedding, the sum of phi^i over its ones, lies in [1, phi^n); its
#   conjugate, the sum of (-1/phi)^i, lies in (-1, phi): the even powers
#   sum to less than phi and the odd ones to more than -1.
# * phi^n - 1 has embeddings phi^n - 1 and -(1 - phi^-n) (n even).  With
#   a = 1/(1 - phi^-n) <= phi, the quotient R/(phi^n - 1) = t1 + t2*phi
#   has embeddings s in (0, a) and c in (-phi*a, a), so
#   t1 = (phi*c + s/phi)/sqrt5 lies in (-phi^2*a/sqrt5, a) and
#   t2 = (s - c)/sqrt5 lies in (-a/sqrt5, phi^2*a/sqrt5).
# * The input's quotient is t1 + t2*phi plus the integral shift sought;
#   rounding it is off by at most 1/2 per coordinate.  So each offset is
#   an integer of absolute value below 1/2 + phi^2*a/sqrt5: 2.39 at
#   n = 2 (a = phi) and at most 1.87 from n = 4 on (a <= 1.171).
#
# The bound depends only on the fractional part of the quotient, so it
# holds for pairs of any size.
#
# Each offset leaves a pair (ax, ay) to test, and the conjugate window
# picks the one to build: the greedy Zeckendorf word of value = ax + 2*ay
# has the pair (ax, ay) exactly when the pair's conjugate embedding
# ax + ay*conj(phi), conj(phi) = (1 - sqrt5)/2, lies in (-1, phi).  So at
# most one word is built per decode:
#
# * A word with pair (cx, cy) has valuation cx + 2*cy (``valuation``), so
#   the pairs of one valuation are those pairs plus k*(-2, 1) for the
#   integers k.
# * The greedy word for 1 <= value < fib(n) exists, has valuation value,
#   and is binary, so its conjugate lies in (-1, phi) (first point above).
# * (-2, 1) has conjugate -2 + conj(phi) = -phi^2, and phi^2 = phi - (-1)
#   is the length of the interval, so every other pair of that valuation
#   lies outside it.  Its endpoints are the conjugates of (-1, 0) and
#   (1, -1), both of valuation -1, which the range check excludes anyway.
#
# On integers, with s = 2*ax + ay, twice the conjugate is s - ay*sqrt5, so
# the window is s + 2 > ay*sqrt5 and s - 1 < (ay + 1)*sqrt5.
_SEARCH_WINDOW = 2
_OFFSETS = sorted(
    ((c1, c2) for c1 in range(-_SEARCH_WINDOW, _SEARCH_WINDOW + 1)
     for c2 in range(-_SEARCH_WINDOW, _SEARCH_WINDOW + 1)),
    key=lambda c: (abs(c[0]) + abs(c[1]), max(abs(c[0]), abs(c[1])), c),
)


def _above_sqrt5(a: int, b: int) -> bool:
    """a > b*sqrt(5), decided exactly on the integers a and b."""
    if b < 0:  # the right side is negative: compare magnitudes when a is too
        return a >= 0 or a * a < 5 * b * b
    return a > 0 and a * a > 5 * b * b


def _in_conjugate_window(x: int, y: int) -> bool:
    """-1 < x + y*conj(phi) < phi, the conjugate window of greedy words."""
    s = 2 * x + y
    return _above_sqrt5(s + 2, y) and _above_sqrt5(1 - s, -y - 1)


def span_order(n: int, *pairs: tuple[int, int]) -> int:
    """Order of the subgroup that the residues of the pairs generate at
    length n; for one pair, the least k >= 1 with k times it in the lattice.

    The group is Z^2 modulo the lattice spanned by phi^n - 1 = (p, q) and
    phi*(phi^n - 1) = (q, p + q), of index norm.  With the pairs added, the
    index is the gcd of all 2x2 minors: norm, each pair's minors with the
    modulus rows (``_quotient``'s num1 and num2), and x*b - y*a for each two
    pairs (x, y), (a, b).  The subgroup has norm / index elements.
    """
    index = norm = _length_table(n)[2]  # refuses n < 1 first
    for i, (x, y) in enumerate(pairs):
        num1, num2, _ = _quotient(x, y, n)
        index = gcd(index, num1, num2)
        for a, b in pairs[:i]:
            index = gcd(index, x * b - y * a)
    return norm // index


def _refuse_odd(n: int) -> None:
    # Only even n has the window proof above.  At odd n each of the L(n) residues holds one
    # admissible word, 0^n included (test_odd_length_admissible_words_hit_each_residue_once),
    # and one move class (test_odd_length_move_classes_are_the_residues).
    if n % 2 != 0:
        raise InvalidWordError(f"normalization requires even length, got {n}")


def decode_pair(x: int, y: int, n: int) -> Word:
    """The admissible length-n word whose Z[phi] pair is congruent to
    x + y*phi modulo phi^n - 1.

    A zero residue decodes to the identity (01)^(n/2).  Works for pairs of
    any size: the search runs around the rounded quotient, so only its
    fractional part matters.  Of the offsets whose valuation is in range,
    only the one whose conjugate lies in (-1, phi) has a greedy Zeckendorf
    word with its pair, so one word is built.  The window is proven for
    even n only, so an odd n is refused; a miss raises NormalizationError.
    At even n up to ``_MEMO_CEILING`` the word found for a residue is kept
    in the length's record and returned when the residue comes again.
    """
    _refuse_odd(n)
    return _decode(x, y, n, _length_table(n))  # refuses n < 1


def _decode(x: int, y: int, n: int, record: tuple) -> Word:
    """``decode_pair`` with the length's ``_length_table`` record already read."""
    p, q, norm, max_value, shifts, desc, memo = record
    num1, num2 = y * q - x * (p + q), x * q - y * p  # as in _quotient
    if memo is not None:
        key = (num1 % norm, num2 % norm)  # names the residue (see _MEMO_CEILING)
        word = memo.get(key)
        if word is not None:
            return word
    q1, q2 = _iround(num1, norm), _iround(num2, norm)
    # the input less the shift (q1 + q2*phi) * (p + q*phi)
    x0, y0 = x - (q1 * p + q2 * q), y - (q1 * q + q2 * (p + q))
    for dx, dy in shifts:  # the offsets of _OFFSETS, in order, times the modulus
        ax, ay = x0 - dx, y0 - dy
        value = ax + 2 * ay  # the valuation of any word with pair (ax, ay)
        if value < 1 or value > max_value or not _in_conjugate_window(ax, ay):
            continue
        candidate = _greedy(value, desc)  # zeckendorf(value, n), with the pair (ax, ay)
        if candidate[0] == 1 and candidate[-1] == 1:
            continue  # linear Zeckendorf form, but not cyclically admissible
        # Never (10)^(n/2), which lies only in the zero class: there the
        # quotient is exact, offset (0, 0) leaves valuation 0, and (-1, 0)
        # leaves phi^n - 1, of valuation fib(n) - 1 and conjugate
        # phi^-n - 1 in (-1, 0), whose greedy word is (01)^(n/2).
        if memo is not None:
            memo[key] = candidate
        return candidate
    raise NormalizationError(
        f"no admissible word of length {n} found for the pair ({x}, {y}); "
        "the uniqueness assumption may be violated"
    )


def normalize(word) -> Word:
    """The unique admissible circular word equivalent to the input.

    Requires even length and a nonzero word.  If the input lies in the
    orbit of 1^n the canonical representative (01)^(n/2) is returned.
    """
    return _normalize_word(_digits(word))


# No cache (maxsize=0): an lru_cache only because perfbench's tracer reads
# its cache_info() counters, under the second name _normalize_cached.  At
# maxsize=0 it hashes nothing, so the unhashable array("Q") passes through.
@lru_cache(maxsize=0)
def _normalize_word(w: bytes | array | Word) -> Word:
    """``normalize`` of digits that ``_digits`` has already checked, as the
    ``bytes``, the ``array("Q")`` or the tuple of ints that checked them,
    each of which ``phi_pair`` reads in place; the answer is a tuple."""
    n = len(w)
    _refuse_odd(n)
    if not any(w):
        raise ZeroWordError("the zero word is not a group element")
    record = _length_table(n)  # refuses a length past the Fibonacci ceiling before encoding
    return _decode(*phi_pair(w), n, record)


_normalize_cached = _normalize_word


def equivalent(u, v) -> bool:
    """True iff both words normalize to the same admissible word."""
    wu, wv = _digits(u), _digits(v)
    if len(wu) != len(wv):
        raise InvalidWordError(f"length mismatch: {len(wu)} vs {len(wv)}")
    return _normalize_word(wu) == _normalize_word(wv)

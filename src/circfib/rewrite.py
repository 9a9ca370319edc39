"""Rewriting moves on circular digit words and normalization to Z-form.

Two families of moves act on a circular word w of length n (indices mod n):

* rule A at position k: decrement w[k-1] and w[k], increment w[k+1]
  (the relation F(k-1) + F(k) = F(k+1));
* rule B at position k: subtract 2 from w[k], increment w[k-2] and w[k+1]
  (the relation 2 F(k) = F(k-2) + F(k+1)).

Backward moves are the exact inverses.  Moves are value shifts guarded by
nonnegativity, so they apply on the full alphabet of nonnegative ints, not
just on the binary patterns 110 <-> 001 and 0020 <-> 1001 that they induce
there.  The moves of a length come from one list (``_moves``) with their
consumed and produced amounts, applied by one routine (``_apply``) that
``apply_move``, ``applicable_moves`` and the orbit BFS share.

Every nonzero circular word of even length is equivalent, under these
moves, to an admissible word that is unique except for the single orbit
containing 1^n, where (01)^l and (10)^l are both reachable and are
identified; (01)^l is the canonical representative.

``orbit`` explores equivalence classes by breadth-first search and is the
reference oracle.  ``normalize`` is the production normalizer and has one
route: validate the word, map it to its pair in Z[phi] (``phi_pair``), and
let ``decode_pair`` reconstruct the admissible representative of that
pair's residue modulo (phi^n - 1) by a search over the 25 lattice offsets
that a written bound allows around the quotient.  The two routes are
independent; ``verify.uniqueness_scan`` checks them against each other
over every {0,1,2}-word at lengths 4, 6 and 8.

The residue is also the group element itself, so arithmetic that needs no
intermediate word stays on pairs: ``group.scalar_mul`` (and ``group.neg``,
which is its k = -1) decodes k times the pair once, and ``is_zero_residue``
and ``residue_order`` answer order questions with no decoding at all.
Word-level ``group.add`` (digit sum, then ``normalize``) is their oracle in
the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .errors import (
    InapplicableMoveError,
    InvalidWordError,
    NormalizationError,
    ZeroWordError,
)
from .fibcore import (
    Word,
    as_word,
    fib,
    is_admissible,
    zeckendorf,
)


@dataclass(frozen=True)
class Move:
    """A single rewriting move: rule 'A' or 'B', anchor position, direction."""

    rule: str
    position: int
    forward: bool = True

    def __post_init__(self):
        if self.rule not in ("A", "B"):
            raise InvalidWordError(f"rule must be 'A' or 'B', got {self.rule!r}")


def _consume_produce(move: Move, n: int) -> tuple[tuple, tuple]:
    # A move consumes units from some slots and produces units at others;
    # all consumed amounts must be in stock simultaneously.  At lengths
    # where window positions collide mod n the amounts accumulate, which
    # keeps forward and backward moves exact inverses of each other.
    k = move.position % n
    if move.rule == "A":
        eats = (((k - 1) % n, 1), (k, 1))
        makes = (((k + 1) % n, 1),)
    else:
        eats = ((k, 2),)
        makes = (((k - 2) % n, 1), ((k + 1) % n, 1))
    if not move.forward:
        eats, makes = makes, eats
    consume: dict[int, int] = {}
    produce: dict[int, int] = {}
    for i, v in eats:
        consume[i] = consume.get(i, 0) + v
    for i, v in makes:
        produce[i] = produce.get(i, 0) + v
    return tuple(consume.items()), tuple(produce.items())


def _moves(n: int) -> list[tuple[Move, tuple, tuple]]:
    """(move, consumed, produced) for every move at length n, in
    (position, rule, direction) order."""
    return [
        (move, *_consume_produce(move, n))
        for k in range(n)
        for rule in ("A", "B")
        for move in (Move(rule, k, True), Move(rule, k, False))
    ]


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


def applicable_moves(word):
    """All moves (both rules, both directions) that apply to the word."""
    w = as_word(word)
    return [
        move for move, consume, produce in _moves(len(w))
        if _apply(w, consume, produce) is not None
    ]


@dataclass(frozen=True)
class OrbitResult:
    """BFS closure of a word under the moves, with a truncation flag."""

    words: frozenset[Word]
    truncated: bool
    digit_cap: int

    def admissible_members(self) -> set[Word]:
        return {w for w in self.words if is_admissible(w)}


def orbit(word, digit_cap: int | None = None, size_cap: int = 10**6) -> OrbitResult:
    """Breadth-first closure of the word under all moves, both directions.

    States with any digit above ``digit_cap`` are pruned; by default it is
    one above the larger of 2 and the word's largest digit.  If more than
    ``size_cap`` states are reached the search stops and the result is
    flagged as truncated (never an exception).
    """
    w = as_word(word)
    least_cap = max(2, max(w))
    if digit_cap is None:
        digit_cap = least_cap + 1
    if digit_cap < least_cap:
        raise InvalidWordError(f"digit cap {digit_cap} below max digit of {w}")
    moves = [(consume, produce) for _, consume, produce in _moves(len(w))]
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
    return OrbitResult(frozenset(seen), truncated, digit_cap)


# --- class invariant in Z[phi] -------------------------------------------
#
# Sending the digit at position i to phi^i identifies a length-n circular
# word with an element of Z[phi] modulo the ideal generated by phi^n - 1,
# because both rules rewrite along identities that hold for the powers of
# phi and the wrap identifies phi^n with 1.  Elements of Z[phi] are stored
# as integer pairs (x, y) meaning x + y*phi.


def _pair_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    x, y = a
    u, v = b
    return (x * u + y * v, x * v + y * u + y * v)


def phi_pair(word) -> tuple[int, int]:
    """Exact pair (x, y) with sum of digit * phi^index == x + y*phi.

    Takes any sequence of ints; callers pass validated words.
    """
    x = y = 0
    fa, fb = 1, 0  # phi^i == fa + fb*phi, starting at i = 0
    for d in word:
        if d:
            x += d * fa
            y += d * fb
        fa, fb = fb, fa + fb
    return x, y


@lru_cache(maxsize=256)
def _modulus_pair(n: int) -> tuple[int, int]:
    # phi^n - 1
    fa, fb = 1, 0
    for _ in range(n):
        fa, fb = fb, fa + fb
    return fa - 1, fb


def _quotient(x: int, y: int, n: int) -> tuple[int, int, int]:
    """(num1, num2, norm), norm > 0, with (x + y*phi) / (phi^n - 1) equal to
    (num1 + num2*phi) / norm exactly."""
    p, q = _modulus_pair(n)
    norm = p * p + p * q - q * q
    if norm == 0:
        raise InvalidWordError(f"degenerate modulus at length {n}")
    # (x + y*phi) * conj(nu), with conj(p + q*phi) = (p + q) - q*phi
    num1 = x * (p + q) - y * q
    num2 = y * p - x * q
    if norm < 0:
        return -num1, -num2, -norm
    return num1, num2, norm


def _iround(p: int, q: int) -> int:
    # round(p / q) for q > 0, half away from zero
    if p >= 0:
        return (2 * p + q) // (2 * q)
    return -((-2 * p + q) // (2 * q))


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
_SEARCH_WINDOW = 2
_OFFSETS = sorted(
    ((c1, c2) for c1 in range(-_SEARCH_WINDOW, _SEARCH_WINDOW + 1)
     for c2 in range(-_SEARCH_WINDOW, _SEARCH_WINDOW + 1)),
    key=lambda c: (abs(c[0]) + abs(c[1]), max(abs(c[0]), abs(c[1])), c),
)


def is_zero_residue(x: int, y: int, n: int) -> bool:
    """True iff x + y*phi is divisible by phi^n - 1 in Z[phi].

    At even length n this is the identity class of the group (the pair of
    (01)^(n/2) is phi^n - 1 itself).
    """
    num1, num2, norm = _quotient(x, y, n)
    return num1 % norm == 0 and num2 % norm == 0


def residue_order(x: int, y: int, n: int) -> int:
    """Least k >= 1 with k * (x + y*phi) divisible by phi^n - 1.

    The quotient by phi^n - 1 is (num1 + num2*phi) / norm, so k must clear
    the reduced denominator of both coordinates.
    """
    num1, num2, norm = _quotient(x, y, n)
    return lcm(norm // gcd(num1, norm), norm // gcd(num2, norm))


def decode_pair(x: int, y: int, n: int) -> Word:
    """The admissible length-n word whose Z[phi] pair is congruent to
    x + y*phi modulo phi^n - 1, with the identity canonicalized.

    A zero residue decodes to the identity (01)^(n/2).  Works for pairs of
    any size: the search runs around the rounded quotient, so only its
    fractional part matters.  The window is proven for even n, the only
    lengths callers pass; a miss raises NormalizationError.
    """
    nu = _modulus_pair(n)
    num1, num2, norm = _quotient(x, y, n)
    q1, q2 = _iround(num1, norm), _iround(num2, norm)
    max_value = fib(n) - 1
    for c1, c2 in _OFFSETS:
        sx, sy = _pair_mul((q1 + c1, q2 + c2), nu)
        ax, ay = x - sx, y - sy
        value = ax + 2 * ay  # the valuation of any word with pair (ax, ay)
        if value < 1 or value > max_value:
            continue
        candidate = zeckendorf(value, n)
        if phi_pair(candidate) != (ax, ay):
            continue
        if candidate[0] == 1 and candidate[-1] == 1:
            continue  # linear Zeckendorf form, but not cyclically admissible
        return _canonical_identity(candidate)
    raise NormalizationError(
        f"no admissible word of length {n} found for the pair ({x}, {y}); "
        "the uniqueness assumption may be violated"
    )


def normalize(word) -> Word:
    """The unique admissible circular word equivalent to the input.

    Requires even length and a nonzero word.  If the input lies in the
    orbit of 1^n the canonical representative (01)^(n/2) is returned.
    """
    w = as_word(word)
    n = len(w)
    if n % 2 != 0:
        raise InvalidWordError(f"normalization requires even length, got {n}")
    if not any(w):
        raise ZeroWordError("the zero word is not a group element")
    return _normalize_cached(w)


# No cache (maxsize=0); kept as an lru_cache because perfbench's tracer
# reads its cache_info() counters.
@lru_cache(maxsize=0)
def _normalize_cached(w: Word) -> Word:
    return decode_pair(*phi_pair(w), len(w))


def _canonical_identity(w: Word) -> Word:
    half = len(w) // 2
    # an odd length never matches: the repeated tuple is one digit short
    if w == (1, 0) * half:
        return (0, 1) * half
    return w


def equivalent(u, v) -> bool:
    """True iff both words normalize to the same admissible word."""
    wu, wv = as_word(u), as_word(v)
    if len(wu) != len(wv):
        raise InvalidWordError(f"length mismatch: {len(wu)} vs {len(wv)}")
    return normalize(wu) == normalize(wv)

"""The abelian group of admissible circular words of even length 2l.

Carrier: admissible binary circular words of length 2l containing at least
one 1, with (10)^l identified with (01)^l, the canonical representative
(``canonical`` maps (10)^l to it; the decoder never yields (10)^l).
Addition is digit-wise sum followed by normalization; the zero word is
excluded by construction and rejected.

The group of parameter l decomposes as Z/d x Z/d for odd l and
Z/5d x Z/d for even l, where d = F(l-2) for even l and d = F(l-1) + F(l-3)
for odd l.  ``decompose`` reads the order and the invariant factors off the
lattice of Z[phi]/(phi^n - 1) with ``rewrite.span_order``, which decodes
nothing.  ``verify.certify_factors`` is the one two-generator certificate,
built from a list of elements; the verification suite runs it on the
enumerated group (criterion 2) and on the order-q group (criterion 6), and
holds the other code that only it runs, the invariant factors the
d-formula predicts and the repetition morphism.  Multiples come
from the residue in Z[phi] modulo (phi^n - 1), and orders of elements from
``span_order``; iterated ``add`` is their oracle in the tests.
"""

from __future__ import annotations

from math import gcd
import operator
from typing import NamedTuple

from .errors import InvalidWordError, ResourceBoundError, ZeroWordError
from .fibcore import Word, _digits, _is_admissible, classical_fib, fib, iter_admissible, phi_pair
from .rewrite import _normalize_word, decode_pair, span_order

# A listing at ell holds about phi^(2l) entries, 2.6 times more per step:
# at 12 (103,680 elements) `group --list` takes 0.4 s and `wheel --map`
# 1.4 s and 118 MB (Python 3.11, 2 vCPU), so a larger ell is refused here,
# the library's only bound on a listing (the CLI's --max-ell comes first).
LISTING_CEILING = 12
GCD_CHECK_BOUND = 200


def identity(ell: int) -> Word:
    """The identity element (01)^l, the one place the package builds it;
    ``rotate`` of it is the other representative (10)^l."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    return (0, 1) * ell


def _element(word) -> bytes:
    """The digits of an admissible nonzero word of even length, as bytes."""
    w = _digits(word)
    if len(w) % 2 != 0:
        raise InvalidWordError(f"group elements have even length, got {len(w)}")
    if not any(w):
        raise ZeroWordError("the zero word is not a group element")
    if not _is_admissible(w):
        raise InvalidWordError(f"not an admissible circular word: {tuple(w)}")
    return bytes(w)  # the int() path gives a tuple, from text or integral floats


def canonical(word) -> Word:
    """Validate an admissible nonzero word and map (10)^l to ``identity(l)``."""
    b = _element(word)
    half = len(b) // 2
    return identity(half) if b == b"\x01\x00" * half else tuple(b)


def add(u, v) -> Word:
    """Group law: digit-wise sum, then normalization."""
    a, b = _digits(u), _digits(v)
    n = len(a)
    if n != len(b):
        raise InvalidWordError(f"length mismatch: {n} vs {len(b)}")
    if isinstance(a, bytes) and isinstance(b, bytes) and a.isascii() and b.isascii():
        # digits below 128 sum below 256, so one big-int addition carries nowhere
        total = (int.from_bytes(a, "little") + int.from_bytes(b, "little")).to_bytes(n, "little")
    else:
        total = tuple(map(operator.add, a, b))
    return _normalize_word(total)


def neg(u) -> Word:
    """Inverse: ``scalar_mul(-1, u)``.

    It equals the normal form of the complement 1^n - u, because 1^n lies
    in the identity class; the tests keep that route as the oracle.
    """
    return scalar_mul(-1, u)


def scalar_mul(k: int, u) -> Word:
    """k-fold sum of u; k may be negative, zero or arbitrarily large.

    Multiplies u's Z[phi] pair by k and decodes the result once, so the
    cost is one normalization for any k.  Iterated ``add`` is the oracle
    in the tests.
    """
    w = _element(u)
    k = operator.index(k)
    x, y = phi_pair(w)
    return decode_pair(k * x, k * y, len(w))


def check_ceiling(ell: int, ceiling: int, what: str) -> None:
    """Refuse an ell above a command's fixed ceiling, such as
    ``LISTING_CEILING``, before any work starts."""
    if ell > ceiling:
        raise ResourceBoundError(f"ell={ell} exceeds the {what} ceiling {ceiling}")


def enumerate_elements(ell: int) -> list[Word]:
    """All group elements of parameter l, in lexicographic word order."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    check_ceiling(ell, LISTING_CEILING, "listing")
    # the zero word comes first in lex order and (10)^l, the largest
    # admissible word, last; neither is an element
    return list(iter_admissible(2 * ell))[1:-1]


def d_value(ell: int) -> int:
    """The invariant-factor parameter d of the group of parameter l."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    if ell % 2 == 0:
        return fib(ell - 2)
    return fib(ell - 1) + fib(ell - 3)


class GroupStructure(NamedTuple):
    order: int
    invariant_factors: tuple[int, int]
    d: int


def element_order(u) -> int:
    """Least k >= 1 with k*u equal to the identity.

    Computed exactly from u's residue in Z[phi] modulo (phi^n - 1), with
    no decoding and no bound on the order; iterated ``add`` is the oracle
    in the tests.
    """
    w = _element(u)
    return span_order(len(w), phi_pair(w))


def decompose(ell: int) -> GroupStructure:
    """Order and invariant factors (e1, e2) of the group of parameter l,
    read off the lattice of ``rewrite.span_order`` with no enumeration.

    1 and phi generate the group, so the order is their span, the index
    norm.  The lattice rows (p, q) and (q, p + q) have entry gcd g, so the
    factors are (norm / g, g); the residue of 1 has index gcd(norm, p + q,
    q) = g, so its order is the exponent e1.  It answers up to l = 50,000,
    where the length 2l reaches ``fibcore.FIB_CEILING``, and refuses past it.
    """
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    order, e1 = span_order(2 * ell, (1, 0), (0, 1)), span_order(2 * ell, (1, 0))
    return GroupStructure(order, (e1, order // e1), d_value(ell))


class GcdCheck(NamedTuple):
    m: int
    n: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class GcdPropertyReport(NamedTuple):
    pair_checks: tuple[GcdCheck, ...]
    even_index_checks: tuple[GcdCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.pair_checks + self.even_index_checks)


def gcd_property_report(top: int) -> GcdPropertyReport:
    """Check gcd(d_m, d_n) == d_gcd(m, n) for 2 <= m, n <= top.

    Also checks that d at even index 2l equals the classical Fibonacci
    number f(2l).  Refuses a top above GCD_CHECK_BOUND before any check;
    the messages name the CLI's --max, which sets top.
    """
    if top < 2:
        raise InvalidWordError(f"--max must be >= 2, got {top}")
    if top > GCD_CHECK_BOUND:
        raise ResourceBoundError(f"--max={top} exceeds gcd-check bound {GCD_CHECK_BOUND}")
    pairs = tuple(
        GcdCheck(m, n, gcd(d_value(m), d_value(n)), d_value(gcd(m, n)))
        for m in range(2, top + 1)
        for n in range(2, top + 1)
    )
    evens = tuple(
        GcdCheck(2 * ell, 2 * ell, d_value(2 * ell), classical_fib(2 * ell))
        for ell in range(1, top // 2 + 1)
    )
    return GcdPropertyReport(pairs, evens)

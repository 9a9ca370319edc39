"""The abelian group of admissible circular words of even length 2l.

Carrier: admissible binary circular words of length 2l containing at least
one 1, with (10)^l identified with (01)^l, the canonical representative
(``canonical`` maps (10)^l to it; the decoder never yields (10)^l).
Addition is digit-wise sum followed by normalization; the zero word is
excluded by construction and rejected.

The group of parameter l decomposes as Z/d x Z/d for odd l and
Z/5d x Z/d for even l, where d = F(l-2) for even l and d = F(l-1) + F(l-3)
for odd l.  ``decompose`` certifies this empirically from the elements
rather than assuming it.  ``certify_factors`` is the one two-generator
certificate: ``decompose`` (criterion 2) and the order-q criterion call it.
Multiples come from the residue in Z[phi] modulo (phi^n - 1), and orders
of elements and of the subgroups two elements generate from
``rewrite.span_order``, which decodes nothing; iterated ``add`` is their
oracle in the tests.
"""

from __future__ import annotations

from math import gcd
import operator
from typing import NamedTuple

from .errors import (
    InvalidWordError,
    ResourceBoundError,
    StructureMismatchError,
    ZeroWordError,
)
from .fibcore import (
    Word,
    alternating_word,
    _is_admissible,
    as_word,
    classical_fib,
    fib,
    iter_admissible,
)
from .rewrite import _normalize_word, decode_pair, phi_pair, span_order

DEFAULT_ENUM_BOUND = 10
GCD_CHECK_BOUND = 200


def identity(ell: int) -> Word:
    """The identity element (01)^l."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    return alternating_word(2 * ell, first=0)


def canonical(word) -> Word:
    """Validate an admissible nonzero word and canonicalize the identity."""
    w = as_word(word)
    if len(w) % 2 != 0:
        raise InvalidWordError(f"group elements have even length, got {len(w)}")
    if not any(w):
        raise ZeroWordError("the zero word is not a group element")
    if not _is_admissible(w):
        raise InvalidWordError(f"not an admissible circular word: {w}")
    half = len(w) // 2
    return (0, 1) * half if w == (1, 0) * half else w


def add(u, v) -> Word:
    """Group law: digit-wise sum, then normalization."""
    wu, wv = as_word(u), as_word(v)
    if len(wu) != len(wv):
        raise InvalidWordError(f"length mismatch: {len(wu)} vs {len(wv)}")
    return _normalize_word(tuple(map(operator.add, wu, wv)))


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
    w = canonical(u)
    k = operator.index(k)
    x, y = phi_pair(w)
    return decode_pair(k * x, k * y, len(w))


def check_enum_bound(ell: int, max_ell: int) -> None:
    """Refuse an ell above the enumeration bound before any work starts."""
    if ell > max_ell:
        raise ResourceBoundError(f"ell={ell} exceeds enumeration bound {max_ell}")


def enumerate_elements(ell: int, max_ell: int = DEFAULT_ENUM_BOUND) -> list[Word]:
    """All group elements of parameter l, in lexicographic word order."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    check_enum_bound(ell, max_ell)
    n = 2 * ell
    skip = alternating_word(n, first=1)
    return [w for w in iter_admissible(n) if any(w) and w != skip]


def d_value(ell: int) -> int:
    """The invariant-factor parameter d of the group of parameter l."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    if ell % 2 == 0:
        return fib(ell - 2)
    return fib(ell - 1) + fib(ell - 3)


def predicted_invariant_factors(ell: int) -> tuple[int, int]:
    """The invariant factors (e1, e2), e2 | e1, that the d-formula predicts
    for parameter l: (d, d) for odd l and (5d, d) for even l."""
    d = d_value(ell)
    return (5 * d, d) if ell % 2 == 0 else (d, d)


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
    w = canonical(u)
    return span_order(len(w), phi_pair(w))


def certify_factors(elements: list[Word]) -> tuple[int, int]:
    """Invariant factors (e1, e2) of the group formed by the given elements,
    certified by exhibiting two generators.

    Finds g1 of maximal order e1 (the exponent) and, unless the group is
    cyclic, g2 of order e2 = order/e1 with <g1> + <g2> of the full order.
    That sum has e1 * e2 / |<g1> & <g2>| elements, so this is g2 meeting
    <g1> only in the identity.  Order d^2 with exponent d does not by itself
    force Z/d x Z/d, so the second generator is required; failure raises
    StructureMismatchError.  Callers pass elements the engine built, so
    each order is read off its pair with no second validation.
    """
    order = len(elements)
    orders = {u: span_order(len(u), phi_pair(u)) for u in elements}
    e1 = max(orders.values())
    if order % e1 != 0:
        raise StructureMismatchError(f"exponent {e1} does not divide order {order}")
    e2 = order // e1
    if e2 > 1:
        g1 = next(u for u, k in orders.items() if k == e1)
        n, pair1 = len(g1), phi_pair(g1)
        if not any(
            k == e2 and span_order(n, pair1, phi_pair(g2)) == order
            for g2, k in orders.items()
        ):
            raise StructureMismatchError(
                f"no second generator of order {e2} certifies rank 2 "
                f"for {order} elements of length {len(g1)}"
            )
    return e1, e2


def decompose(ell: int, max_ell: int = DEFAULT_ENUM_BOUND) -> GroupStructure:
    """Empirical invariant factors of the group of parameter l.

    ``certify_factors`` certifies them from the enumerated elements by two
    generators; its failure raises StructureMismatchError, as does
    disagreement with the predicted decomposition.
    """
    elements = enumerate_elements(ell, max_ell)
    result = GroupStructure(len(elements), certify_factors(elements), d_value(ell))
    expected = predicted_invariant_factors(ell)
    if result.invariant_factors != expected:
        raise StructureMismatchError(
            f"ell={ell}: computed factors {result.invariant_factors}, expected {expected}"
        )
    return result


def repeat_morphism(u, n: int) -> Word:
    """Concatenate the word with itself n times.

    Cyclic admissibility is preserved by literal repetition, and the
    canonical identity (01)^l repeats to (01)^(n*l), so the result needs
    neither normalization nor a second check; the map is an injective
    homomorphism into the group of parameter n*l.
    """
    if n < 1:
        raise InvalidWordError(f"repetition count must be >= 1, got {n}")
    return canonical(u) * n


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
    def failures(self) -> list[GcdCheck]:
        return [c for c in self.pair_checks + self.even_index_checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def gcd_property_report(max_ell: int) -> GcdPropertyReport:
    """Check gcd(d_m, d_n) == d_gcd(m, n) for 2 <= m, n <= max_ell.

    Also checks that d at even index 2l equals the classical Fibonacci
    number f(2l).  Refuses a max_ell above GCD_CHECK_BOUND before any check.
    """
    if max_ell < 2:
        raise InvalidWordError(f"max_ell must be >= 2, got {max_ell}")
    if max_ell > GCD_CHECK_BOUND:
        raise ResourceBoundError(f"max_ell={max_ell} exceeds gcd-check bound {GCD_CHECK_BOUND}")
    pairs = tuple(
        GcdCheck(m, n, gcd(d_value(m), d_value(n)), d_value(gcd(m, n)))
        for m in range(2, max_ell + 1)
        for n in range(2, max_ell + 1)
    )
    evens = tuple(
        GcdCheck(2 * ell, 2 * ell, d_value(2 * ell), classical_fib(2 * ell))
        for ell in range(1, max_ell // 2 + 1)
    )
    return GcdPropertyReport(pairs, evens)

"""Admissible circular words of order dividing q.

For q >= 2 these form a group isomorphic to Z/q x Z/q once words are
identified with their repetitions.  Elements are materialized at the single
canonical length n = minimal_even_length(q), with the primitive period
stored alongside to realize the repetition identification.

The elements are built from the lattice rather than found by search: the
group at length n is Z[phi] modulo the lattice spanned by nu = phi^n - 1
and nu*phi, and q divides nu at the canonical length, so its elements of
order dividing q are the residues of (a*nu + b*nu*phi) / q for
0 <= a, b < q.  Each is decoded to its admissible word once.  Enumerating
every element and keeping those of order dividing q is the oracle in the
tests.

Two distinguished elements exist at that length: the words P and P' with
valuations (F(n) - 1) / q and (F(n-1) - 1) / q.  Their group multiples up
to q coincide positionally with the Zeckendorf words of the integer
multiples of their valuations, and rotating P' gives P.  The group
multiples are decoded from the residue, with iterated ``add`` as the oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .errors import InvalidWordError, ResourceBoundError
from .fibcore import Word, as_word, fib, is_admissible, rotate, valuation, zeckendorf
from .group import add, canonical
from .rewrite import _modulus_pair, _pair_mul, decode_pair, phi_pair, span_order

DEFAULT_P_GROUP_BOUND = 12
_SCAN_LIMIT = 10**6


def minimal_even_length(q: int) -> int:
    """Least even n >= 2 with F(n) and F(n-1) both congruent to 1 mod q."""
    if q < 2:
        raise InvalidWordError(f"q must be >= 2, got {q}")
    prev, cur = fib(1) % q, fib(2) % q  # F(n-1), F(n) at n = 2
    n = 2
    while n <= _SCAN_LIMIT:
        if n % 2 == 0 and prev == 1 % q and cur == 1 % q:
            return n
        prev, cur = cur, (prev + cur) % q
        n += 1
    raise ResourceBoundError(f"no admissible period length found for q={q} up to {_SCAN_LIMIT}")


def pi_words(q: int) -> tuple[Word, Word]:
    """The distinguished pair (P, P') at the canonical length for q."""
    n = minimal_even_length(q)
    num, num_prime = fib(n) - 1, fib(n - 1) - 1
    assert num % q == 0 and num_prime % q == 0
    pi = zeckendorf(num // q, n)
    pi_prime = zeckendorf(num_prime // q, n)
    for w in (pi, pi_prime):
        if not is_admissible(w):
            raise InvalidWordError(f"distinguished word not cyclically admissible: {w}")
    return pi, pi_prime


class PeriodicElement(NamedTuple):
    """A group element of order dividing q, at the canonical length."""

    word: Word
    primitive: Word


def primitive_period(u) -> Word:
    """Shortest word whose literal repetition equals the input."""
    w = as_word(u)
    n = len(w)
    for p in range(1, n + 1):  # returns by p = n, as w == w[:n] and n >= 1
        if n % p == 0 and w == w[:p] * (n // p):
            return w[:p]


def p_group(q: int, max_ell: int = DEFAULT_P_GROUP_BOUND) -> list[PeriodicElement]:
    """All elements of the canonical-length group whose order divides q.

    Built from the lattice (see ``_p_group_cached``); ``max_ell`` bounds
    the canonical length at 2*max_ell, as for enumeration.
    """
    n = minimal_even_length(q)
    if n > 2 * max_ell:
        raise ResourceBoundError(
            f"canonical length {n} for q={q} exceeds enumeration bound 2*{max_ell}"
        )
    return list(_p_group_cached(q))


# No cache (maxsize=0): a process asks for one q once.  An lru_cache only
# because perfbench's tracer reads its cache_info() counters.
@lru_cache(maxsize=0)
def _p_group_cached(q: int) -> tuple[PeriodicElement, ...]:
    """Elements of order dividing q, in lexicographic word order.

    Decodes the residues (a*nu + b*nu*phi) / q for 0 <= a, b < q.  They are
    integral because F(n) and F(n-1) are 1 mod q at the canonical length,
    so q divides both coordinates of nu = phi^n - 1; two of them differ by
    a lattice vector only if their (a, b) agree modulo q, so these are
    exactly the q^2 elements of order dividing q, each once.  The test
    suite compares the result with the full enumeration filtered by order
    and with a filter built from iterated word-level ``add``.
    """
    n = minimal_even_length(q)
    nu_x, nu_y = _modulus_pair(n)
    assert nu_x % q == 0 and nu_y % q == 0
    step = (nu_x // q, nu_y // q)
    words = sorted(
        decode_pair(*_pair_mul((a, b), step), n) for a in range(q) for b in range(q)
    )
    return tuple(PeriodicElement(w, primitive_period(w)) for w in words)


def oplus(u, v) -> Word:
    """Mixed-length addition: repeat both words to lcm length, then add."""
    wu, wv = canonical(u), canonical(v)
    m = lcm(len(wu), len(wv))
    return add(wu * (m // len(wu)), wv * (m // len(wv)))


def pi_subgroup_index(q: int) -> int:
    """Index of the subgroup <P> + <P'> generated by the distinguished pair.

    Reported, not asserted (1 means they generate).  <P> + <P'> has
    ``rewrite.span_order`` of the two pairs elements, and the order-q group
    q^2 (``_p_group_cached``), so no decode and no bound on q; the closure
    of the q^2 sums i*P + j*P' is the oracle in the tests.
    """
    pi, pi_prime = pi_words(q)
    span = span_order(len(pi), phi_pair(pi), phi_pair(pi_prime))
    total = q * q
    assert total % span == 0
    return total // span


class PiMultiplesReport(NamedTuple):
    """Outcome of the three checks on the distinguished pair for one q."""

    pi: Word
    pi_prime: Word
    multiples_match: bool
    rotation_match: bool
    satisfiers: tuple[Word, ...]

    @property
    def only_pi_pair_satisfies(self) -> bool:
        return set(self.satisfiers) == {self.pi, self.pi_prime}

    @property
    def ok(self) -> bool:
        return self.multiples_match and self.rotation_match and self.only_pi_pair_satisfies


def multiples_match(w: Word, q: int) -> bool:
    """True iff i*w is the Zeckendorf word of i*valuation(w) for i in 1..q.

    For i >= 2, i*w is decoded from i times w's Z[phi] pair; iterated
    ``add`` is the oracle in the tests.  At i = q the multiple of P' is the
    identity (01)^l while the Zeckendorf word is (10)^l, so both sides are
    compared in canonical form.
    """
    n = len(w)
    value = valuation(w)
    x, y = phi_pair(w)
    for i in range(1, q + 1):
        if i * value >= fib(n):
            return False
        target = zeckendorf(i * value, n)
        if not is_admissible(target):
            return False  # linear Zeckendorf form with a wrapping 1..1 pair
        multiple = w if i == 1 else decode_pair(i * x, i * y, n)
        if multiple != canonical(target):
            return False
    return True


def verify_pi_multiples(q: int, max_ell: int = DEFAULT_P_GROUP_BOUND) -> PiMultiplesReport:
    """Check the defining properties of P and P' and scan for other satisfiers.

    (a) group multiples of P and P' up to q equal the Zeckendorf words of
    the integer multiples; (b) rotating P' gives P; (c) no element of the
    order-q group besides P and P' satisfies (a).  The satisfier list is
    reported in full rather than asserted, so that any extra satisfier is
    visible data.  The bound is refused before any multiple is checked.
    """
    elements = p_group(q, max_ell)
    pi, pi_prime = pi_words(q)
    multiples_ok = multiples_match(pi, q) and multiples_match(pi_prime, q)
    satisfiers = tuple(e.word for e in elements if multiples_match(e.word, q))
    return PiMultiplesReport(
        pi=pi,
        pi_prime=pi_prime,
        multiples_match=multiples_ok,
        rotation_match=rotate(pi_prime) == pi,
        satisfiers=satisfiers,
    )

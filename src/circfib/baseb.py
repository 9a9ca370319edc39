"""Circular-word arithmetic in an ordinary integer base.

Executable cross-check of the classical picture that motivates the
Fibonacci construction: length-n circular words over digits 0..b-1, added
digit-wise with the final carry wrapped around to the other end, form the
cyclic group of integers modulo b^n - 1.  The period of the base-b
expansion of 1/q (for gcd(b, q) = 1) is the distinguished word whose first
q multiples are carry-free: in base 10 with q = 7 this is 142857.

Unlike the Fibonacci modules, words here are written most significant
digit first, matching everyday decimal notation, so index 0 is the
*largest* power of the base.  Carries therefore propagate toward index 0
and the final carry wraps to the rightmost digit.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidWordError, ResourceBoundError

CYCLIC_GROUP_BOUND = 500


class _BaseBWord(NamedTuple):
    digits: tuple[int, ...]
    base: int


class BaseBWord(_BaseBWord):
    """Fixed-length digit word in base b, most significant digit first."""

    __slots__ = ()

    def __new__(cls, digits: tuple[int, ...], base: int):
        if base < 2:
            raise InvalidWordError(f"base must be > 1, got {base}")
        if len(digits) < 1:
            raise InvalidWordError("word must have length >= 1")
        if any(d < 0 or d >= base for d in digits):
            raise InvalidWordError(f"digits out of range for base {base}: {digits}")
        return super().__new__(cls, digits, base)

    def __str__(self) -> str:
        if self.base <= 10:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    def value(self) -> int:
        out = 0
        for d in self.digits:
            out = out * self.base + d
        return out


def word_from_value(value: int, base: int, length: int) -> BaseBWord:
    """Fixed-width base-b digits of a value, leading zeros kept."""
    if value < 0 or value >= base**length:
        raise InvalidWordError(f"{value} does not fit in {length} base-{base} digits")
    digits = []
    for _ in range(length):
        digits.append(value % base)
        value //= base
    return BaseBWord(tuple(reversed(digits)), base)


def _class_word(value: int, base: int, length: int) -> BaseBWord:
    """The word of value's class modulo base^length - 1.  That modulus is
    the all-(b-1) word, so the zero word stands for its class."""
    return word_from_value(value % (base**length - 1), base, length)


def circ_add_base_b(u: BaseBWord, v: BaseBWord) -> BaseBWord:
    """Digit-wise addition with the final carry wrapped to the right end.

    The all-(b-1) word is the same class as the all-zero word and is
    canonicalized to it.
    """
    if u.base != v.base:
        raise InvalidWordError(f"base mismatch: {u.base} vs {v.base}")
    if len(u.digits) != len(v.digits):
        raise InvalidWordError(f"length mismatch: {len(u.digits)} vs {len(v.digits)}")
    b = u.base
    n = len(u.digits)
    digits = [x + y for x, y in zip(u.digits, v.digits)]
    # At most two passes: the sum is at most 2*(b^n - 1), so a first pass
    # that carries out 1 leaves at most b^n - 2, and the wrapped 1 cannot
    # carry out again.
    while True:
        carry = 0
        for i in range(n - 1, -1, -1):
            digits[i] += carry
            carry, digits[i] = divmod(digits[i], b)
        if carry == 0:
            break
        digits[n - 1] += carry  # wrap the leftmost carry to the right end
    if all(d == b - 1 for d in digits):
        digits = [0] * n
    return BaseBWord(tuple(digits), b)


def multiplicative_order(b: int, q: int) -> int:
    """Least n >= 1 with b^n congruent to 1 mod q; requires b > 1 and
    gcd(b, q) = 1."""
    from math import gcd

    if b < 2:  # first: at b = 1 the period's modulus b^n - 1 is 0
        raise InvalidWordError(f"base must be > 1, got {b}")
    if q < 1:
        raise InvalidWordError(f"q must be >= 1, got {q}")
    if gcd(b, q) != 1:
        raise InvalidWordError(f"gcd({b}, {q}) != 1: expansion of 1/{q} is not purely periodic")
    n = 1
    acc = b % q
    while acc != 1 % q:
        acc = (acc * b) % q
        n += 1
        if n > q:
            raise InvalidWordError(f"no multiplicative order of {b} mod {q}")
    return n


def period_word(b: int, q: int) -> BaseBWord:
    """Period of the base-b expansion of 1/q, leading zeros kept.

    Its value is (b^n - 1) / q where n is the multiplicative order of b
    mod q; for q = 1 the period is the single digit 0.
    """
    n = multiplicative_order(b, q)
    return _class_word((b**n - 1) // q, b, n)


class CyclicGroupReport(NamedTuple):
    """Multiples table of the period word and its verification result."""

    multiples: tuple[BaseBWord, ...]
    ok: bool


def verify_cyclic_group(b: int, q: int) -> CyclicGroupReport:
    """Check the multiples table of the period word of 1/q.

    For i = 1..q, the i-fold circular sum must equal the base-b digits of
    i times the period's value, and the q-th multiple must be the zero
    class.  The work grows like q^2, so a q above CYCLIC_GROUP_BOUND is
    refused before the O(q) period search.
    """
    if q > CYCLIC_GROUP_BOUND:
        raise ResourceBoundError(f"q={q} exceeds demo-base bound {CYCLIC_GROUP_BOUND}")
    period = period_word(b, q)
    n = len(period.digits)
    value = period.value()
    multiples = []
    ok = True
    acc = period
    for i in range(1, q + 1):
        if i > 1:
            acc = circ_add_base_b(acc, period)
        ok = ok and acc == _class_word(i * value, b, n)
        multiples.append(acc)
    return CyclicGroupReport(tuple(multiples), ok)

"""An independent decoder oracle: the periodic greedy phi-expansion.

A length-n word w with pair R = sum of w[i] * phi^i has
R / (phi^n - 1) = 0.(w[n-1] ... w[0]) repeated, in base phi.  So the
admissible word of the class of x + y*phi is the period of the one purely
periodic greedy phi-expansion among the numbers t - m, m in Z[phi], with
t = (x + y*phi) / (phi^n - 1).  The greedy map u -> phi*u - floor(phi*u)
keeps u in that set after every n steps, since phi^n * t = t + x + y*phi,
and it contracts the conjugate, so from any start in [0, 1) it reaches the
periodic expansion.  The identity class is the one whose expansion is 0.
This decoder shares no code with ``zeckendorf``, ``_quotient`` or
``_OFFSETS``: it needs no search window.
"""

import itertools
from math import isqrt

from hypothesis import given, settings, strategies as st

from circfib.rewrite import decode_pair, phi_pair


def _floor(c, d, norm):
    """floor((c + d*phi) / norm) for norm > 0, exactly: 2*phi = 1 + sqrt5."""
    r = isqrt(5 * d * d)  # floor(|d| * sqrt5); d * sqrt5 is no integer unless d == 0
    return (2 * c + d + (r if d >= 0 else -r - 1)) // (2 * norm)


def expansion_decode(x, y, n):
    p, q = 1, 0  # phi^k = p + q*phi, from k = 0
    for _ in range(n):
        p, q = q, p + q
    p -= 1  # phi^n - 1 = p + q*phi; its conjugate is (p + q) - q*phi
    a, b, norm = x * (p + q) - y * q, y * p - x * q, p * p + p * q - q * q
    if norm < 0:
        a, b, norm = -a, -b, -norm
    a -= _floor(a, b, norm) * norm  # u = (a + b*phi) / norm lies in [0, 1)
    for _ in range(10_000):
        start, digits = (a, b), []
        for _ in range(n):
            a, b = b, a + b  # u -> phi*u
            digit = _floor(a, b, norm)
            digits.append(digit)  # the first digit is w[n-1]
            a -= digit * norm
        if (a, b) == start:
            word = tuple(reversed(digits))
            return word if any(word) else (0, 1) * (n // 2)
    raise AssertionError(f"no periodic expansion for ({x}, {y}) at length {n}")


def test_expansion_oracle_matches_decoder_on_every_binary_word():
    # every class at these lengths has an admissible, hence binary, member
    for ell in range(1, 7):
        n = 2 * ell
        for w in itertools.product((0, 1), repeat=n):
            x, y = phi_pair(w)
            assert expansion_decode(x, y, n) == decode_pair(x, y, n), w


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=-10**12 + 1, max_value=10**12 - 1),
    st.integers(min_value=-10**12 + 1, max_value=10**12 - 1),
)
def test_expansion_oracle_matches_decoder_on_large_pairs(ell, x, y):
    assert expansion_decode(x, y, 2 * ell) == decode_pair(x, y, 2 * ell)

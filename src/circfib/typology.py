"""Type partition of the group and the balanced partition of the infinite word.

Every non-identity element u falls into exactly one of three classes named
by the word X in {(01)^l, (10)^l, (11)^l} satisfying

    valuation(u) + valuation(-u) == valuation(X).

The identity representatives are assigned by convention: (01)^l to T01 and
(10)^l to T10.  ``classify`` reads the class off the word's shape, the
parity of the index of its first 1 and its last digit, and the proof next
to it shows that the shape picks the one equation u satisfies; it decodes
nothing.  Under this package's anchored left-to-right reading the (01)/(10)
labels come out mirrored relative to the shape rule stated for the
opposite reading.  Criterion 8 of the verification suite keeps the
valuation equations, with -u decoded, as the independent route.

``type_classes`` computes the partition once, classifying each element
once; ``image_sets`` and ``sigma_relation_check`` read it.  The valuation
images of the classes are compared against closed-form sets built from
prefixes of the infinite word: T10 matches its formula exactly, T01
differs by the constant +1 under these conventions, and T11 matches
exactly.  ``image_sets`` reports computed set, formula set, and fitted
offset instead of asserting equality.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import InvalidWordError, PartitionError
from .fibcore import (
    Word,
    fib,
    fibonacci_word_prefix,
    letter_counts,
    rotate,
    valuation,
)
from .group import canonical, check_ceiling, d_value, enumerate_elements, identity

T01 = "T01"
T10 = "T10"
T11 = "T11"
TAGS = (T01, T10, T11)

# fib_partition builds a prefix of F(2l - 2) letters: 1.7-1.9 s and 57 MB
# at l = 18, 4.7-5.1 s and 127 MB at 19 (fresh processes, Python 3.11,
# 2-vCPU host)
PARTITION_CEILING = 18

# Why the shape picks the class, for n = 2l >= 4 (at n = 2 the identity is
# the only element).  Write eps = phi^-n, nu = phi^n - 1, and sigma(w) =
# sum of w_i (-1/phi)^i, the conjugate of w's pair (``fibcore.phi_pair``).
# The pairs of (01)^l, (10)^l and 1^n are nu, nu/phi and phi*nu, with
# sigma -(1 - eps), phi*(1 - eps) and (1 - eps)/phi.  For a nonzero binary
# word w with no two adjacent ones, sigma(w) lies in (-1, phi) (the
# conjugate window at ``rewrite._SEARCH_WINDOW``), and:
#
# * (F1) w[0] = 1 exactly when sigma(w) > 1/phi.  Written 1 0 w' or 0 w',
#   sigma(w) is 1 + sigma(w')/phi^2 in (1/phi, phi), or -sigma(w')/phi in
#   (-1, 1/phi).
# * (F2) sigma(w) has the sign (-1)^i, i the index of the first 1: it is
#   (-1/phi)^i times the sigma of a word that starts with 1, by F1 > 0.
# * (F3) sigma(w) <= phi*(1 - eps), the sum over the even indices, with
#   equality only at (10)^l.
#
# Take an element u other than the identity, so 1 <= val(u) <= F(n) - 2,
# with F = ``fib`` (only (01)^l has valuation F(n) - 1).  Pick X by the
# shape, let V = val(X) - val(u) and v the greedy word of V.  In each case
# below 1 <= V <= F(n) - 1 and sigma(pair(X) - pair(u)) lies in (-1, phi),
# so by the window lemma v has the pair pair(X) - pair(u), and v is
# cyclically admissible and not (10)^l.  Then u + v is in the zero class,
# and since each residue has one element (the argument at
# ``rewrite._MEMO_CEILING``), v = -u: u satisfies X's equation.  The three
# valuations of X differ, so it satisfies no other.
#
# * First 1 at an odd index, X = (01)^l: V = F(n) - 1 - val(u) is in
#   [1, F(n) - 2].  By F2 sigma(u) is in (-1, 0), so sigma(nu - u) is in
#   (-(1 - eps), eps), and v[0] = 0 by F1.
# * First 1 at an even index, last digit 0, X = (10)^l: u is a greedy word
#   of n - 1 digits other than (10)^l, so val(u) <= F(n-1) - 2 and V is in
#   [1, F(n-1) - 2].  By F2 and F3 sigma(u) is in (0, phi*(1 - eps)), so
#   sigma(nu/phi - u) is too.  As V < F(n-1), v[n-1] = 0, and v is not
#   (10)^l, of valuation F(n-1) - 1.
# * First 1 at an even index, last digit 1, X = 1^n: val(u) >= F(n-1), so
#   V = F(n+1) - 2 - val(u) is in [F(n-1), F(n) - 2] and v[n-1] = 1.  By F2
#   and F3 sigma(u) is in (0, phi*(1 - eps)), so sigma(phi*nu - u) is in
#   (-(1 - eps), (1 - eps)/phi), and v[0] = 0 by F1.
#
# The identity (01)^l has its first 1 at index 1, so the rule tags it T01.
def classify(u) -> str:
    """Tag of the class equation the element satisfies, read off its shape.

    After ``canonical`` (which maps (10)^l to the identity (01)^l), a first
    1 at an odd index gives T01; otherwise the last digit, 0 or 1, gives
    T10 or T11.  The proof above shows that this is the one valuation
    equation u satisfies, and the identity comes out T01, its convention.
    Criterion 8 checks the rule against the equations with -u decoded.
    """
    w = canonical(u)
    if w.index(1) % 2 == 1:  # there is a 1: ``canonical`` refused the zero word
        return T01
    return T10 if w[-1] == 0 else T11


class ImageSetComparison(NamedTuple):
    """A class's valuation image next to its closed-form set, under the
    class's tag in ``image_sets``; offset 0 means the two sets are equal."""

    computed: frozenset[int]
    formula: frozenset[int]
    offset: int | None  # constant c with computed == {f + c}, if one exists


def _prefix_counts(upto: int) -> list[tuple[int, int]]:
    """(a-count, b-count) of each prefix M_k of the infinite word, k < upto,
    from one running a-count over one prefix of the word."""
    a_counts = accumulate(map("a".__eq__, fibonacci_word_prefix(upto)), initial=0)
    return [(a, k - a) for k, a in zip(range(upto), a_counts)]


def type_classes(ell: int) -> dict[str, frozenset[Word]]:
    """The type partition of the group: each tag's class as a set of words.

    Every element is classified once; ``classify`` tags the identity
    (01)^l T01.  By convention the identity is also represented in T10,
    as (10)^l, which is not an element.
    """
    classes: dict[str, set[Word]] = {T01: set(), T10: {rotate(identity(ell))}, T11: set()}
    for u in enumerate_elements(ell):
        classes[classify(u)].add(u)
    return {tag: frozenset(words) for tag, words in classes.items()}


def image_sets(classes: dict[str, frozenset[Word]]) -> dict[str, ImageSetComparison]:
    """Valuation image of each class of ``type_classes`` next to its closed-form set.

    Formula sets range over prefixes M_k of the infinite word: k < F(2l-2)
    for T10 and T01, k < F(2l-5) - 1 for T11, a shorter range, so one
    prefix's counts serve all three.  F(2l-5) is read as F(2l-3) - F(2l-4),
    which ``fib`` defines down to l = 1 (an empty T11 range).  A shift that
    maps one finite set onto another maps its minimum to the other's
    minimum, so the only candidate offset is the difference of the minima,
    and it is 0 exactly when the sets are equal (two empty sets included).
    """
    ell = len(next(iter(classes[T01]))) // 2  # T01 always holds (01)^l
    main_counts = _prefix_counts(fib(2 * ell - 2))
    t11_range = fib(2 * ell - 3) - fib(2 * ell - 4) - 1
    formula = {
        T10: {1 + 2 * a + b for a, b in main_counts},
        T01: {1 + 3 * a + 2 * b for a, b in main_counts},
        T11: {fib(2 * ell - 1) + 3 + 5 * a + 3 * b for a, b in main_counts[:t11_range]},
    }

    out = {}
    for tag in TAGS:
        comp = frozenset(map(valuation, classes[tag]))
        form = frozenset(formula[tag])
        c = min(comp) - min(form) if comp and form else 0
        offset = c if comp == frozenset(f + c for f in form) else None
        out[tag] = ImageSetComparison(comp, form, offset)
    return out


def sigma_relation_check(classes: dict[str, frozenset[Word]]) -> bool:
    """True iff rotation maps the T10 class of ``type_classes`` onto its
    T01 class bijectively."""
    return {rotate(w) for w in classes[T10]} == classes[T01]


class PartitionBlock(NamedTuple):
    index: int
    block: str
    a_count: int
    b_count: int


def fib_partition(ell: int) -> list[PartitionBlock]:
    """Equal-frequency split of 'b' + prefix of the infinite word.

    The word of length F(2l-2) + 1 splits into k = d(l) blocks of length
    F(2l-2) / d(l) followed by a single trailing 'a', and every block has
    the same letter counts.  The block count, not the block length, equals
    the invariant-factor parameter d: one block per multiple in the chain
    of the second distinguished word, whose valuation is the constant
    2*a_count + b_count of the blocks.  The transposed split into d(l)-long
    blocks has provably non-constant counts from l = 4 on (at l = 3 both
    splits work).  Violations raise PartitionError.  The word grows like
    phi^(2l), so ``PARTITION_CEILING`` is checked before it is built.
    """
    if ell <= 2:
        raise InvalidWordError(f"ell must be > 2, got {ell}")
    check_ceiling(ell, PARTITION_CEILING, "partition")
    total = fib(2 * ell - 2)
    word = "b" + fibonacci_word_prefix(total)
    k = d_value(ell)
    if total % k != 0:
        raise PartitionError(f"block count {k} does not divide {total}")
    block_len = total // k
    if word[-1] != "a":
        raise PartitionError(f"trailing letter of the split is {word[-1]!r}, not 'a'")
    blocks = []
    for i in range(k):
        piece = word[i * block_len:(i + 1) * block_len]
        a, b = letter_counts(piece)
        blocks.append(PartitionBlock(i + 1, piece, a, b))
    counts = {(blk.a_count, blk.b_count) for blk in blocks}
    if len(counts) != 1:
        raise PartitionError(f"blocks at ell={ell} have non-constant counts: {counts}")
    return blocks

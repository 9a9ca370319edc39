"""Type partition of the group and the balanced partition of the infinite word.

Every non-identity element u falls into exactly one of three classes named
by the word X in {(01)^l, (10)^l, (11)^l} satisfying

    valuation(u) + valuation(-u) == valuation(X).

The identity representatives are assigned by convention: (01)^l to T01 and
(10)^l to T10.  The same partition has a purely structural description by
the run of zeros before the first 1 and the last digit; under this
package's anchored left-to-right reading the (01)/(10) labels come out
mirrored relative to the shape rule stated for the opposite reading, and
that mirrored assignment is the one cross-validated exhaustively against
the valuation classes (see ``structural_class``).

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
    phi_pair,
    rotate,
    valuation,
)
from .group import (
    DEFAULT_ENUM_BOUND,
    canonical,
    check_ceiling,
    d_value,
    enumerate_elements,
    identity,
)
from .rewrite import decode_pair

T01 = "T01"
T10 = "T10"
T11 = "T11"
TAGS = (T01, T10, T11)

# fib_partition builds a prefix of F(2l - 2) letters: 1.7-1.9 s and 57 MB
# at l = 18, 4.7-5.1 s and 127 MB at 19 (fresh processes, Python 3.11,
# 2-vCPU host)
PARTITION_CEILING = 18

def _target_valuations(ell: int) -> dict[str, int]:
    n = 2 * ell
    return {
        T01: fib(n) - 1,       # N((01)^l)
        T10: fib(n - 1) - 1,   # N((10)^l)
        T11: fib(n + 1) - 2,   # N((11)^l)
    }


def classify(u) -> str:
    """Tag of the unique class equation the element satisfies.

    The identity, (01)^l once ``canonical`` has mapped (10)^l to it, is
    tagged T01 by convention; every other element must satisfy exactly one
    of the three valuation equations, and a miss raises PartitionError
    rather than guessing.  The input is validated once: both valuations
    are x + 2y of a pair, u's from its ``phi_pair`` (x, y) and -u's from
    the word that ``decode_pair(-x, -y, n)`` gives, which is ``neg(u)``.
    """
    w = canonical(u)
    n = len(w)
    ell = n // 2
    if w == identity(ell):
        return T01
    x, y = phi_pair(w)
    nx, ny = phi_pair(decode_pair(-x, -y, n))
    total = x + 2 * y + nx + 2 * ny
    hits = [tag for tag, v in _target_valuations(ell).items() if v == total]
    if len(hits) != 1:
        raise PartitionError(f"element {w} matches {len(hits)} class equations")
    return hits[0]


def structural_class(u) -> str:
    """Tag from the zero-run/suffix shape of the word; no group arithmetic."""
    w = canonical(u)
    ell = len(w) // 2
    if w == identity(ell):
        raise InvalidWordError("identity representatives are tagged by convention")
    # Shape rule, reading from index 0: odd zero-run before the first 1 (there
    # is one: ``canonical`` refused the zero word), or an even zero-run with
    # last digit 0 / 1.  The labels are the mirror of the ones the shapes
    # would carry under the opposite reading direction.
    if w.index(1) % 2 == 1:
        return T01
    return T10 if w[-1] == 0 else T11


class ImageSetComparison(NamedTuple):
    tag: str
    computed: frozenset[int]
    formula: frozenset[int]
    offset: int | None  # constant c with computed == {f + c}, if one exists

    @property
    def exact(self) -> bool:
        return self.computed == self.formula


def _prefix_counts(upto: int) -> list[tuple[int, int]]:
    """(a-count, b-count) of each prefix M_k of the infinite word, k < upto,
    from one running a-count over one prefix of the word."""
    a_counts = accumulate(map("a".__eq__, fibonacci_word_prefix(upto)), initial=0)
    return [(a, k - a) for k, a in zip(range(upto), a_counts)]


def type_classes(ell: int, max_ell: int = DEFAULT_ENUM_BOUND) -> dict[str, frozenset[Word]]:
    """The type partition of the group: each tag's class as a set of words.

    Every element is classified once; ``classify`` tags the identity
    (01)^l T01.  By convention the identity is also represented in T10,
    as (10)^l, which is not an element.
    """
    classes: dict[str, set[Word]] = {T01: set(), T10: {rotate(identity(ell))}, T11: set()}
    for u in enumerate_elements(ell, max_ell):
        classes[classify(u)].add(u)
    return {tag: frozenset(words) for tag, words in classes.items()}


def image_sets(classes: dict[str, frozenset[Word]]) -> dict[str, ImageSetComparison]:
    """Valuation image of each class of ``type_classes`` next to its closed-form set.

    Formula sets range over prefixes M_k of the infinite word: k < F(2l-2)
    for T10 and T01, k < F(2l-5) - 1 for T11, a shorter range, so one
    prefix's counts serve all three.  F(2l-5) is read as F(2l-3) - F(2l-4),
    which ``fib`` defines down to l = 1 (an empty T11 range).  A shift that
    maps one finite set onto another maps its minimum to the other's
    minimum, so the only candidate offset is the difference of the minima.
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
        out[tag] = ImageSetComparison(tag, comp, form, offset)
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


def fib_partition(ell: int, max_ell: int = DEFAULT_ENUM_BOUND) -> list[PartitionBlock]:
    """Equal-frequency split of 'b' + prefix of the infinite word.

    The word of length F(2l-2) + 1 splits into k = d(l) blocks of length
    F(2l-2) / d(l) followed by a single trailing 'a', and every block has
    the same letter counts.  The block count, not the block length, equals
    the invariant-factor parameter d: one block per multiple in the chain
    of the second distinguished word, whose valuation is the constant
    2*a_count + b_count of the blocks.  The transposed split into d(l)-long
    blocks has provably non-constant counts from l = 4 on (at l = 3 both
    splits work).  Violations raise PartitionError.  The word grows like
    phi^(2l), so the bound and ``PARTITION_CEILING`` are checked before it
    is built.
    """
    if ell <= 2:
        raise InvalidWordError(f"ell must be > 2, got {ell}")
    check_ceiling(ell, PARTITION_CEILING, "partition", max_ell)
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

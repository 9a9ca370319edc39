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
the valuation classes (see ``STRUCTURAL_LABELS``).

The valuation images of the classes are compared against closed-form sets
built from prefixes of the infinite word: T10 matches its formula exactly,
T01 differs by the constant +1 under these conventions, and T11 matches
exactly.  ``image_sets`` reports computed set, formula set, and fitted
offset instead of asserting equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidWordError, PartitionError
from .fibcore import (
    alternating_word,
    fib,
    fibonacci_word_prefix,
    letter_counts,
    rotate,
    valuation,
)
from .group import (
    DEFAULT_ENUM_BOUND,
    canonical,
    d_value,
    enumerate_elements,
    identity,
    neg,
    scalar_mul,
)
from .orderq import minimal_even_length, pi_words

T01 = "T01"
T10 = "T10"
T11 = "T11"
TAGS = (T01, T10, T11)

# Shape rule, reading from index 0: odd zero-run before the first 1, or an
# even zero-run with last digit 0 / 1.  The labels are the mirror of the
# ones the shapes would carry under the opposite reading direction.
STRUCTURAL_LABELS = {
    "odd_run": T01,
    "even_run_suffix0": T10,
    "even_run_suffix1": T11,
}


def _target_valuations(ell: int) -> dict[str, int]:
    n = 2 * ell
    return {
        T01: fib(n) - 1,       # N((01)^l)
        T10: fib(n - 1) - 1,   # N((10)^l)
        T11: fib(n + 1) - 2,   # N((11)^l)
    }


def classify(u) -> str:
    """Tag of the unique class equation the element satisfies.

    The identity representatives are tagged by convention; every other
    element must satisfy exactly one of the three valuation equations, and
    a miss raises PartitionError rather than guessing.
    """
    w = canonical(u)
    ell = len(w) // 2
    if w == identity(ell):
        return T01
    if w == alternating_word(2 * ell, first=1):
        return T10
    total = valuation(w) + valuation(neg(w))
    hits = [tag for tag, v in _target_valuations(ell).items() if v == total]
    if len(hits) != 1:
        raise PartitionError(f"element {w} matches {len(hits)} class equations")
    return hits[0]


def structural_class(u) -> str:
    """Tag from the zero-run/suffix shape of the word; no group arithmetic."""
    w = canonical(u)
    ell = len(w) // 2
    if w == identity(ell) or w == alternating_word(2 * ell, first=1):
        raise InvalidWordError("identity representatives are tagged by convention")
    run = 0
    while w[run] == 0:
        run += 1
    if run % 2 == 1:
        return STRUCTURAL_LABELS["odd_run"]
    if w[-1] == 0:
        return STRUCTURAL_LABELS["even_run_suffix0"]
    return STRUCTURAL_LABELS["even_run_suffix1"]


@dataclass(frozen=True)
class ImageSetComparison:
    tag: str
    computed: frozenset[int]
    formula: frozenset[int]
    offset: int | None  # constant c with computed == {f + c}, if one exists

    @property
    def exact(self) -> bool:
        return self.computed == self.formula


def _prefix_counts(upto: int) -> list[tuple[int, int]]:
    word = fibonacci_word_prefix(max(upto, 0))
    counts = []
    a = 0
    for k in range(upto):
        counts.append((a, k - a))
        if k < len(word) and word[k] == "a":
            a += 1
    return counts


def image_sets(ell: int, max_ell: int = DEFAULT_ENUM_BOUND) -> dict[str, ImageSetComparison]:
    """Computed valuation image of each class next to its closed-form set.

    Computed sets include the identity representatives in their
    conventional classes.  Formula sets range over prefixes M_k of the
    infinite word: k < F(2l-2) for T10 and T01, k < F(2l-5) - 1 for T11.
    """
    n = 2 * ell
    computed: dict[str, set[int]] = {tag: set() for tag in TAGS}
    ident = identity(ell)
    for u in enumerate_elements(ell, max_ell):
        if u == ident:
            continue
        computed[classify(u)].add(valuation(u))
    computed[T01].add(fib(n) - 1)
    computed[T10].add(fib(n - 1) - 1)

    main_range = fib(2 * ell - 2)
    t11_range = max(0, fib(2 * ell - 5) - 1) if 2 * ell - 5 >= -2 else 0
    main_counts = _prefix_counts(main_range)
    formula = {
        T10: {1 + 2 * a + b for a, b in main_counts},
        T01: {1 + 3 * a + 2 * b for a, b in main_counts},
        T11: {fib(2 * ell - 1) + 3 + 5 * a + 3 * b for a, b in _prefix_counts(t11_range)},
    }

    out = {}
    for tag in TAGS:
        comp, form = frozenset(computed[tag]), frozenset(formula[tag])
        offset = None
        if len(comp) == len(form):
            if not form:
                offset = 0
            else:
                candidates = sorted({c - f for c in comp for f in form}, key=abs)
                for c in candidates:
                    if comp == frozenset(f + c for f in form):
                        offset = c
                        break
        out[tag] = ImageSetComparison(tag, comp, form, offset)
    return out


def sigma_relation_check(ell: int, max_ell: int = DEFAULT_ENUM_BOUND) -> bool:
    """True iff rotation maps the T10 class onto the T01 class bijectively.

    Both classes are taken with their conventional identity representative
    included, as raw words.
    """
    ident = identity(ell)
    t01 = {ident}
    t10 = {alternating_word(2 * ell, first=1)}
    for u in enumerate_elements(ell, max_ell):
        if u == ident:
            continue
        tag = classify(u)
        if tag == T01:
            t01.add(u)
        elif tag == T10:
            t10.add(u)
    return {rotate(w) for w in t10} == t01


@dataclass(frozen=True)
class PartitionBlock:
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
    splits work).  Violations raise PartitionError.
    """
    if ell <= 2:
        raise InvalidWordError(f"ell must be > 2, got {ell}")
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


@dataclass(frozen=True)
class KPiTypeReport:
    """Tags of the multiples of the distinguished pair for q = d(l)."""

    ell: int
    q: int
    pi_tags: tuple[str, ...]
    pi_prime_tags: tuple[str, ...]

    @property
    def single_tag_per_family(self) -> bool:
        return len(set(self.pi_tags)) == 1 and len(set(self.pi_prime_tags)) == 1

    @property
    def families_distinct(self) -> bool:
        return set(self.pi_tags).isdisjoint(self.pi_prime_tags)

    @property
    def ok(self) -> bool:
        return self.single_tag_per_family and self.families_distinct


def k_pi_type_check(ell: int) -> KPiTypeReport:
    """Classify every multiple k*P and k*P' for 1 <= k < q, q = d(l).

    Each family is expected to carry a single tag, the two families
    different ones; which family gets which label under this package's
    conventions is reported, not asserted.
    """
    q = d_value(ell)
    if q < 2:
        raise InvalidWordError(f"d({ell}) = {q} < 2: no multiples to classify")
    if minimal_even_length(q) != 2 * ell:
        raise InvalidWordError(f"canonical length for q={q} is not 2*{ell}")
    pi, pi_prime = pi_words(q)
    pi_tags = tuple(classify(scalar_mul(k, pi)) for k in range(1, q))
    pi_prime_tags = tuple(classify(scalar_mul(k, pi_prime)) for k in range(1, q))
    return KPiTypeReport(ell, q, pi_tags, pi_prime_tags)

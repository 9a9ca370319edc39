"""Wheel graphs, spanning-tree enumeration, and the taxonomy bijection.

The l-wheel has rim vertices v0..v(l-1) on a cycle plus a center joined to
every rim vertex: 2l edges in all, spokes r_i = c-v_i and rim edges
s_i = v_i-v_(i+1 mod l).  Degenerate small cases: at l = 1 the rim edge
would be a self-loop and is dropped from the graph (self-loops never occur
in spanning trees); at l = 2 the two rim edges are parallel and are kept as
distinguishable edges of a multigraph.

A spanning tree is carried as its raw word, a circular word of length 2l:
position 2i is 1 iff spoke i is in the tree, position 2i+1 is 0 iff rim
edge i is in the tree (note the inversion on rim bits).  These raw words
are exactly the nonzero binary circular words whose cyclic blocks of zeros
all have even length, and normalizing them maps the spanning trees
bijectively onto the group of parameter l, which transports the group law
onto trees.  ``_tree_words`` generates them directly, as the rotations of
the tilings by 1 and 00 that start with 1, one word per group element;
the listings (``tree_words``, ``taxonomy_table``) and
``identity_fiber_report`` read those words, and ``spanning_trees``, by
union-find backtracking over the edges, is the oracle they are checked
against.  ``tree_add`` normalizes the sum of the two raw words once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidWordError
from .fibcore import Word, format_word
from .group import LISTING_CEILING, add, check_ceiling, decompose, identity
from .rewrite import normalize

# identity_fiber_report normalizes one generated word per group element,
# about 2.6 times more per step in l: 0.07 s at l = 9, 0.2 s and 23 MB at
# l = 10 (fresh processes, Python 3.11, 2-vCPU host)
FIBER_SCAN_CEILING = 10


def wheel_edges(ell: int) -> list[tuple[str, int, int, int]]:
    """Edges as (kind, index, endpoint, endpoint); the center is vertex l."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    center = ell
    edges = []
    for i in range(ell):
        edges.append(("r", i, center, i))
    for i in range(ell):
        j = (i + 1) % ell
        if i == j:
            continue  # l = 1: the rim edge is a self-loop, excluded
        edges.append(("s", i, i, j))
    return edges


def spanning_trees(ell: int) -> list[Word]:
    """The raw words of all spanning trees, by backtracking with union-find
    acyclicity: the oracle for ``tree_words``, in the same order."""
    check_ceiling(ell, LISTING_CEILING, "listing")
    edges = wheel_edges(ell)
    need = ell  # a spanning tree of l+1 vertices has l edges
    parent = list(range(ell + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    word = [0, 1] * ell  # no edge chosen yet
    out: list[Word] = []

    def rec(idx: int, size: int):
        if size == need:
            out.append(tuple(word))
            return
        if size + (len(edges) - idx) < need:
            return
        kind, i, a, b = edges[idx]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            bit = 2 * i + (kind == "s")
            word[bit] ^= 1  # a chosen spoke reads 1, a chosen rim edge 0
            rec(idx + 1, size + 1)
            word[bit] ^= 1
            parent[ra] = ra
        rec(idx + 1, size)

    rec(0, 0)
    return out


def count_trees_matrix(ell: int) -> int:
    """Spanning-tree count via the integer determinant of the reduced Laplacian."""
    edges = wheel_edges(ell)  # refuses ell < 1
    size = ell + 1
    lap = [[0] * size for _ in range(size)]
    for _, _, a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    minor = [row[:ell] for row in lap[:ell]]  # delete the center row/column
    return _det_bareiss(minor)


def _det_bareiss(m: list[list[int]]) -> int:
    # Fraction-free Gaussian elimination; exact over the integers.  It needs
    # no pivoting here: the wheel is connected, so its reduced Laplacian is
    # positive definite, and each pivot a[k][k] is the leading principal
    # minor of order k + 1 of the input, which is therefore positive.
    n = len(m)
    a = [row[:] for row in m]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


# turns a word's rim bits into rim-inclusion bits
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def tree_words(ell: int) -> list[Word]:
    """The raw words of all spanning trees, generated (``_tree_words``) and
    listed in the order of ``spanning_trees``: descending by the spoke bits,
    then by the rim-inclusion bits."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    check_ceiling(ell, LISTING_CEILING, "listing")
    return sorted(
        _tree_words(ell),
        key=lambda w: bytes(w[0::2]) + bytes(w[1::2]).translate(_FLIP),
        reverse=True,
    )


@lru_cache(maxsize=32)
def taxonomy_table(ell: int) -> dict[Word, Word]:
    """Inverse of the taxonomy map, from each group element to its tree word.

    Raises if two trees normalize to the same element, which would falsify
    the bijection; the tables are cached per l.
    """
    table: dict[Word, Word] = {}
    for tree in tree_words(ell):
        element = normalize(tree)
        if element in table:
            raise InvalidWordError(
                f"taxonomy collision at ell={ell}: "
                f"{format_word(table[element])} and {format_word(tree)}"
            )
        table[element] = tree
    return table


def tree_add(t1: Word, t2: Word) -> Word:
    """The group law transported onto spanning trees via the taxonomy; a raw
    word has its tree's residue, so ``add`` of the raw words is the sum.
    ``add`` refuses two words of different lengths."""
    return taxonomy_table(len(t1) // 2)[add(t1, t2)]


def star_tree(ell: int) -> Word:
    """The all-spokes tree; its word 1^(2l) normalizes to the identity."""
    if ell < 1:
        raise InvalidWordError(f"ell must be >= 1, got {ell}")
    return (1,) * (2 * ell)


class IdentityFiberReport(NamedTuple):
    """Fiber sizes of the tree-word map onto group elements at one l."""

    ell: int
    tree_words: frozenset[Word]
    group_order: int
    fiber_sizes: dict[Word, int]

    @property
    def identity_fiber(self) -> int:
        return self.fiber_sizes.get(identity(self.ell), 0)

    @property
    def bijective(self) -> bool:
        return (
            len(self.tree_words) == self.group_order
            and all(v == 1 for v in self.fiber_sizes.values())
        )


def _tree_words(ell: int) -> frozenset[Word]:
    """The tree words of length 2l, generated: the nonzero binary words
    whose cyclic zero blocks all have even length, which are exactly the
    raw taxonomy words of spanning trees.

    The ones that start with 1 are the tilings by 1 and 00 that start with
    the tile 1: there the wrap block is the trailing block.  Every tree
    word is one of them, u, with t trailing zeros, rotated right by its
    s <= t leading zeros, and each such rotation is a tree word.
    """
    # refused by the words' length 2l, the message the CLI golden output pins
    if ell < 1:
        raise InvalidWordError(f"length must be >= 1, got {2 * ell}")
    # shorter and tilings: the tilings of lengths m - 1 and m
    shorter, tilings = [()], [(1,)]
    for _ in range(2 * ell - 2):
        shorter, tilings = tilings, [(1,) + t for t in tilings] + [(0, 0) + t for t in shorter]
    words = []
    for tail in tilings:
        w = (1,) + tail
        words.append(w)
        while w[-1] == 0:  # rotate right while a trailing zero is left to move
            w = w[-1:] + w[:-1]
            words.append(w)
    return frozenset(words)


def identity_fiber_report(ell: int) -> IdentityFiberReport:
    """How many even-zero-block words normalize to each group element.

    Generates the tree words (``_tree_words``) and keeps them in the
    report.  The taxonomy is expected to be a bijection,
    so every fiber should have size one, with the identity class
    represented by 1^(2l) alone.  The report records the actual sizes
    rather than presuming them.  ``FIBER_SCAN_CEILING`` is checked before
    the words are generated.
    """
    check_ceiling(ell, FIBER_SCAN_CEILING, "fiber scan")
    tree_words = _tree_words(ell)
    fiber = Counter(map(normalize, tree_words))
    return IdentityFiberReport(ell, tree_words, decompose(ell).order, fiber)

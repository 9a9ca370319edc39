"""Circular-word arithmetic under the Fibonacci no-adjacent-ones constraint.

The package is organized around plain tuples of nonnegative ints as words:

* :mod:`circfib.fibcore` -- numeration conventions, digit words, the
  pair codec (a word's Z[phi] pair and the valuation read off it), the
  greedy codec, admissibility, rotation, the infinite binary word;
* :mod:`circfib.rewrite` -- the two rewriting moves, orbit search, and the
  normal form;
* :mod:`circfib.group` -- the finite abelian groups of admissible words
  and their structure;
* :mod:`circfib.orderq` -- the subgroups of order dividing q and the
  distinguished period words;
* :mod:`circfib.typology` -- the three-class type partition and the
  balanced partition of infinite-word prefixes;
* :mod:`circfib.wheels` -- wheel-graph spanning trees and the taxonomy
  bijection;
* :mod:`circfib.baseb` -- the analogous construction in an ordinary
  integer base, as a cross-check;
* :mod:`circfib.verify` -- verification suites for every quantitative
  claim;
* :mod:`circfib.cli` -- the command-line front end.

Result records are ``typing.NamedTuple`` classes, not dataclasses: importing
``dataclasses`` loads ``inspect`` and costs every process about 15 ms.
"""

from .errors import (
    CapacityError,
    CircfibError,
    InapplicableMoveError,
    InvalidWordError,
    NormalizationError,
    PartitionError,
    ResourceBoundError,
    StructureMismatchError,
    ZeroWordError,
)
from .fibcore import (
    Word,
    fib,
    classical_fib,
    valuation,
    zeckendorf,
    is_admissible,
    rotate,
    parse_word,
    format_word,
    fibonacci_word_prefix,
    letter_counts,
    check_balanced,
)
from .rewrite import Move, apply_move, equivalent, normalize, orbit
from .group import add, d_value, decompose, identity, neg, scalar_mul

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CircfibError",
    "InapplicableMoveError",
    "InvalidWordError",
    "Move",
    "NormalizationError",
    "PartitionError",
    "ResourceBoundError",
    "StructureMismatchError",
    "Word",
    "ZeroWordError",
    "add",
    "apply_move",
    "check_balanced",
    "classical_fib",
    "d_value",
    "decompose",
    "equivalent",
    "fib",
    "fibonacci_word_prefix",
    "format_word",
    "identity",
    "is_admissible",
    "letter_counts",
    "neg",
    "normalize",
    "orbit",
    "parse_word",
    "rotate",
    "scalar_mul",
    "valuation",
    "zeckendorf",
    "__version__",
]

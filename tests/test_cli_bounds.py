"""Every fixed ceiling of the package is held from both sides by the rows of
``tests/cli_bounds.py``: an accepted row and a refused row name it, every
name a row gives is a ceiling, and every row's argv parses.  The rows
themselves run in CI, through ``python3 tests/cli_bounds.py``."""

import ast
from pathlib import Path

import pytest

from circfib import cli, verify
from cli_bounds import ROWS

SRC = Path(__file__).parent.parent / "src" / "circfib"
SUFFIXES = ("_CEILING", "_BOUND", "_LIMIT")
# named like a ceiling, but refuses nothing: it sizes the decode memo
NOT_CEILINGS = {"rewrite._MEMO_CEILING"}


def module_constants() -> set[str]:
    """Every module-level name of the package that ends like a ceiling."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                names |= {
                    f"{path.stem}.{name.id}"
                    for name in ast.walk(node)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                    and name.id.endswith(SUFFIXES)
                }
    return names


def ceilings() -> list[str]:
    """The module ceilings, and the deepest ``verify.DEPTHS`` row of each kind."""
    deepest = {}
    for kind, _, ceiling in verify.DEPTHS.values():
        deepest[kind] = max(ceiling, deepest.get(kind, ceiling))
    depths = {f"verify.DEPTHS[{kind}={ceiling}]" for kind, ceiling in deepest.items()}
    return sorted(module_constants() - NOT_CEILINGS | depths)


def test_the_excluded_names_exist():
    assert NOT_CEILINGS <= module_constants()


@pytest.mark.parametrize("name", ceilings())
def test_every_ceiling_has_an_accepted_and_a_refused_row(name):
    codes = {row.code for row in ROWS if name in row.bounds}
    assert {0, 3} <= codes, name


def test_every_row_names_a_ceiling():
    known = set(ceilings())
    assert [row.argv for row in ROWS if not row.bounds or set(row.bounds) - known] == []


def test_every_row_parses():
    parser = cli.build_parser()
    for row in ROWS:
        try:
            parser.parse_args(row.argv.split())
        except SystemExit:  # argparse's usage error
            pytest.fail(f"circfib {row.argv[:80]} does not parse")

"""Every name a module of the package imports is used in that module, a
one-shot command loads only the modules it runs, the engine modules hold no
code that only ``verify`` runs, no library function of ``group``,
``typology``, ``wheels`` or ``orderq`` takes the CLI's ``max_ell``, and no
module loads ``dataclasses``, whose import pulls in ``inspect``, ``ast`` and
``dis``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "circfib"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))  # re-exports
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom math import gcd, lcm as least\n"
        "from typing import Callable\nfrom .x import y\n"
        "__all__ = ['y']\n"
        "def f(g: Callable) -> int:\n    return gcd(sys.maxsize, 2)\n"
    )
    assert unused_imports(source) == ["least", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_dataclasses(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "dataclasses" not in imported


HEAVY = """
import contextlib, io, json, sys
heavy = lambda: [name for name in ("dataclasses", "inspect") if name in sys.modules]
import circfib.cli
seen = [heavy()]
with contextlib.redirect_stdout(io.StringIO()):
    assert circfib.cli.main(["--max-ell", "2", "--max-q", "2", "verify"]) == 0
seen.append(heavy())
print(json.dumps(seen))
"""


def test_verify_loads_neither_dataclasses_nor_inspect():
    # -S keeps site from preloading anything, so whatever is loaded, circfib loaded
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", HEAVY], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [[], []]


CORE = ["circfib", "circfib.cli", "circfib.errors", "circfib.fibcore", "circfib.group", "circfib.rewrite"]
# every module a command may load: `python -m circfib` alone runs __main__
MODULES = [path.stem for path in SRC.glob("*.py") if path.stem not in ("__init__", "__main__")]
EVERY = sorted(["circfib", *(f"circfib.{stem}" for stem in MODULES)])
FOOTPRINT = """
import contextlib, io, json, sys
import circfib.cli
loaded = lambda: sorted(name for name in sys.modules if name.split(".")[0] == "circfib")
footprints = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert circfib.cli.main(argv) == 0, argv
    footprints.append(loaded())
print(json.dumps(footprints))
"""


def circfib_modules_after(*argvs) -> list[list[str]]:
    """The circfib modules a fresh interpreter holds after ``import circfib.cli``,
    then after each command in turn (names only: ``site`` may preload stdlib ones)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_one_shot_arithmetic_loads_only_the_core():
    footprints = circfib_modules_after(
        ["reduce", "020111"], ["add", "0101", "1000"], ["neg", "0100"], ["mul", "3", "0100"]
    )
    assert footprints == [CORE] * 5


def test_verify_loads_every_module_but_the_disk_cache():
    # group --list computes its listing and never loads the cache; wheel
    # --map, the one cached listing, loads it even with no cache dir
    _, after_verify, after_list, after_map = circfib_modules_after(
        ["--max-ell", "2", "--max-q", "2", "verify"],
        ["group", "--ell", "1", "--list"],
        ["wheel", "--ell", "1", "--map"],
    )
    assert len(EVERY) == 12
    assert after_verify == after_list == [name for name in EVERY if name != "circfib.cache"]
    assert after_map == EVERY


MAP_RUN = """
import sys
import circfib.cli
code = circfib.cli.main(sys.argv[1:])
sys.stdout.flush()
print("circfib.wheels" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_warm_wheel_map_hit_does_not_load_wheels(tmp_path):
    # a cold run computes and stores the map; a warm run only reads the file
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    argv = [sys.executable, "-c", MAP_RUN, "--cache-dir", str(tmp_path), "wheel", "--ell", "4", "--map"]
    cold, warm = (subprocess.run(argv, env=env, capture_output=True, check=True) for _ in range(2))
    assert os.listdir(tmp_path) == ["wheel-map_ell_4.tsv"]
    assert (cold.stderr, warm.stderr) == (b"True\n", b"False\n")
    assert warm.stdout == cold.stdout
    assert cold.stdout.count(b"\n") == 1 + 45  # the header and the 4-wheel's 45 trees


ENGINE = ("fibcore", "rewrite", "group")


def verify_only_names(src: Path) -> list[str]:
    """Top-level functions and classes of the engine modules that only
    ``verify`` reads: no code of their own module (their own body aside)
    and no other module of the package names them."""
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    readers = {
        (stem, node.name): set()
        for stem in ENGINE
        for node in trees[stem].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    for stem, tree in trees.items():
        modules = {}  # local name -> module, from `from . import group`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif (node.module, alias.name) in readers:
                        readers[node.module, alias.name].add(stem)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    key = (modules.get(node.value.id), node.attr)
                elif isinstance(node, ast.Name):
                    key = (stem, node.id)
                else:
                    continue
                if key in readers and key != (stem, getattr(top, "name", None)):
                    readers[key].add(stem)
    return sorted(name for (_, name), seen in readers.items() if seen == {"verify"})


def test_verify_only_names_are_found(tmp_path):
    files = {
        "fibcore.py": "def f():\n    return f()\n\ndef g():\n    pass\n",
        "rewrite.py": "from .fibcore import g\n\ndef h():\n    return g()\n",
        "group.py": "class K:\n    pass\n",
        "verify.py": "from . import group\nfrom .fibcore import f\n\ndef run():\n    return f(), group.K\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # f calls only itself, g serves rewrite, and h serves nothing
    assert verify_only_names(tmp_path) == ["K", "f"]


def test_code_only_verify_runs_lives_in_verify():
    # every process compiles the engine modules, often with no bytecode
    # cached; code that only the verification suites run belongs in verify
    assert verify_only_names(SRC) == []


def functions_taking(source: str, name: str) -> list[str]:
    """The functions, nested ones and lambdas included, with a parameter of
    the given name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if name in (p.arg for p in params):
                found.append(getattr(node, "name", "<lambda>"))
    return found


def test_functions_taking_are_found():
    source = (
        "def f(max_ell): pass\ndef g(*, max_ell=1): pass\ndef h(ell): pass\n"
        "class C:\n    def m(self, /, max_ell): pass\n"
        "k = lambda **max_ell: 0\n"
    )
    assert sorted(functions_taking(source, "max_ell")) == ["<lambda>", "f", "g", "m"]


@pytest.mark.parametrize("stem", ["group", "typology", "wheels", "orderq"])
def test_the_enumeration_bound_is_the_clis_alone(stem):
    # --max-ell is checked once, in cli.dispatch; these modules keep only
    # their fixed ceilings
    assert functions_taking((SRC / f"{stem}.py").read_text(), "max_ell") == []

import doctest
import importlib
import re
from pathlib import Path


def test_readme_library_tour():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README library tour", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert (runner.failures, runner.tries) == (0, 5)


def test_readme_depth_list_is_the_verify_table():
    from circfib import verify

    text = (Path(__file__).parent.parent / "README.md").read_text()
    head = "| criterion | row | bound | first | ceiling | at the defaults |\n|---|---|---|---|---|---|\n"
    body = text.split(head, 1)[1].split("\n\n", 1)[0]
    listed = [tuple(line.strip("| ").split(" | ")) for line in body.splitlines()]
    defaults = dict(zip(("ell", "q"), verify.run_verify.__defaults__))
    assert listed == [
        (criterion, row, kind, str(first), str(ceiling), str(min(defaults[kind], ceiling)))
        for (criterion, row), (kind, first, ceiling) in verify.DEPTHS.items()
    ]


def test_readme_cited_names_exist():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    cited = re.findall(r"\bcircfib\.([a-z_]+)\.([A-Za-z_]\w*)", text)
    missing = [
        f"circfib.{module}.{name}"
        for module, name in cited
        if not hasattr(importlib.import_module(f"circfib.{module}"), name)
    ]
    assert cited
    assert missing == []

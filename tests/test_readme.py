import doctest
from pathlib import Path


def test_readme_library_tour():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README library tour", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert (runner.failures, runner.tries) == (0, 5)

"""The CLI contract under generated argv: every subcommand, small ints
(0, 1 and negatives among them), digit strings and flag mixes.

No exception escapes ``main`` apart from argparse's ``SystemExit(2)``; the
exit code is 0, 2 or 3, or 1 from a checking mode only; a second run prints
the same stdout.  Bounds stay small so that no example runs long, and
``--cache-dir`` is left out, so nothing is written.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from circfib.cli import main

ints = st.integers(min_value=-3, max_value=7)
words = st.text(alphabet="012349x", max_size=8)
CHECKING = ("verify", "--verify", "--verify-bijection")


def _mode(*modes):
    return st.sampled_from(modes).map(lambda m: [m])


def _command(draw):
    name = draw(st.sampled_from([
        "reduce", "orbit", "add", "neg", "mul", "group", "orderq", "types",
        "fibword", "wheel", "gcd-check", "demo-base", "verify",
    ]))

    def num(strategy=ints):
        return str(draw(strategy))

    if name in ("reduce", "neg"):
        return [name, draw(words)]
    if name == "orbit":
        argv = [name, draw(words), "--cap", num(st.integers(-2, 40))]
        return argv + (["--digit-cap", num()] if draw(st.booleans()) else [])
    if name == "add":
        return [name, draw(words), draw(words)]
    if name == "mul":
        return [name, num(st.integers(-20, 20)), draw(words)]
    if name == "group":
        return [name, "--ell", num()] + draw(_mode("--list", "--count", "--structure", "--table"))
    if name == "orderq":
        return [name, "--q", num()] + draw(_mode("--min-length", "--pi", "--elements", "--verify"))
    if name == "types":
        return [name, "--ell", num()] + draw(_mode("--partition", "--image-sets", "--verify"))
    if name == "fibword":
        return [name, "--ell", num(), "--partition"]
    if name == "wheel":
        return [name, "--ell", num()] + draw(_mode("--count", "--trees", "--map", "--verify-bijection"))
    if name == "gcd-check":
        return [name] + (["--max", num(st.integers(-2, 30))] if draw(st.booleans()) else [])
    if name == "demo-base":
        return [name, "--base", num(st.integers(-3, 12)), "--q", num(st.integers(-3, 30))]
    return [name]


@st.composite
def argvs(draw):
    command = _command(draw)
    verify = command[0] == "verify"
    flags = []
    if draw(st.booleans()):
        flags += ["--format", draw(st.sampled_from(["tsv", "jsonlines"]))]
    if draw(st.booleans()):
        flags += ["--max-ell", str(draw(st.integers(-2, 2 if verify else 7)))]
    if draw(st.booleans()):
        flags += ["--max-q", str(draw(st.integers(-2, 3 if verify else 7)))]
    return flags + command


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv  # argparse's usage error, and nothing else
            code = 2
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_cli_contract(argv):
    code, out = _run(argv)
    assert code in (0, 2, 3) or (code == 1 and any(m in argv for m in CHECKING)), (argv, code)
    assert _run(argv) == (code, out), argv

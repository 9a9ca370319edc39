import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from circfib import cache, verify, wheels
from circfib.cli import main, render


def parse_records(text, fmt):
    """Inverse of ``render``, for round-trip checks."""
    lines = [line for line in text.splitlines() if line]
    if fmt == "jsonlines":
        return [json.loads(line) for line in lines]
    if not lines:
        return []
    fields = lines[0].split("\t")
    return [dict(zip(fields, line.split("\t"))) for line in lines[1:]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    code, out, _ = run_cli(capsys, "reduce", "020111")
    assert code == 0
    assert out == "word\tnormal_form\n020111\t010010\n"


def test_reduce_jsonlines(capsys):
    code, out, _ = run_cli(capsys, "--format", "jsonlines", "reduce", "0002")
    assert code == 0
    assert json.loads(out) == {"word": "0002", "normal_form": "0010"}


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "020111"],
        ["orbit", "1111", "--digit-cap", "2"],
        ["add", "0001", "0001"],
        ["neg", "0001"],
        ["mul", "4", "000100"],
        ["group", "--ell", "2", "--list"],
        ["group", "--ell", "3", "--count"],
        ["group", "--ell", "4", "--structure"],
        ["group", "--ell", "2", "--table"],
        ["orderq", "--q", "4", "--min-length"],
        ["orderq", "--q", "4", "--pi"],
        ["orderq", "--q", "3", "--elements"],
        ["orderq", "--q", "2", "--verify"],
        ["types", "--ell", "2", "--partition"],
        ["types", "--ell", "3", "--image-sets"],
        ["types", "--ell", "2", "--verify"],
        ["fibword", "--ell", "4", "--partition"],
        ["wheel", "--ell", "3", "--count"],
        ["wheel", "--ell", "3", "--trees"],
        ["wheel", "--ell", "3", "--map"],
        ["wheel", "--ell", "2", "--verify-bijection"],
        ["gcd-check", "--max", "6"],
        ["demo-base", "--base", "12", "--q", "5"],
        ["--max-ell", "2", "--max-q", "2", "verify"],
    ],
    ids=" ".join,
)
def test_formats_encode_same_records(capsys, argv):
    tsv_code, tsv_out, _ = run_cli(capsys, *argv)
    json_code, json_out, _ = run_cli(capsys, "--format", "jsonlines", *argv)
    records = parse_records(tsv_out, "tsv")
    assert records and tsv_code == json_code
    assert records == parse_records(json_out, "jsonlines")


def test_render_round_trip():
    records = [{"a": "1", "b": "x y"}, {"a": "2", "b": ""}]
    for fmt in ("tsv", "jsonlines"):
        assert parse_records(render(records, fmt), fmt) == records


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "wheel", "--ell", "3", "--map")
    _, second, _ = run_cli(capsys, "wheel", "--ell", "3", "--map")
    assert first == second


def test_orbit_lists_members(capsys):
    code, out, _ = run_cli(capsys, "orbit", "1111", "--digit-cap", "2")
    assert code == 0
    members = [r["member"] for r in parse_records(out, "tsv")]
    assert "0101" in members and "1010" in members


def test_add_neg_mul(capsys):
    code, out, _ = run_cli(capsys, "add", "0001", "0001")
    assert code == 0 and parse_records(out, "tsv")[0]["sum"] == "0010"
    code, out, _ = run_cli(capsys, "neg", "0001")
    assert code == 0 and parse_records(out, "tsv")[0]["negation"] == "0100"
    code, out, _ = run_cli(capsys, "mul", "4", "000100")
    assert code == 0 and parse_records(out, "tsv")[0]["product"] == "010101"


def test_group_subcommands(capsys):
    code, out, _ = run_cli(capsys, "group", "--ell", "3", "--count")
    assert code == 0 and parse_records(out, "tsv")[0]["order"] == "16"
    code, out, _ = run_cli(capsys, "group", "--ell", "2", "--structure")
    record = parse_records(out, "tsv")[0]
    assert (record["e1"], record["e2"]) == ("5", "1")
    code, out, _ = run_cli(capsys, "group", "--ell", "2", "--table")
    assert code == 0 and len(parse_records(out, "tsv")) == 25


def test_group_table_bound(capsys):
    code, _, err = run_cli(capsys, "group", "--ell", "5", "--table")
    assert code == 3
    assert "error" in err


def test_orderq_subcommands(capsys):
    code, out, _ = run_cli(capsys, "orderq", "--q", "4", "--min-length")
    assert code == 0 and parse_records(out, "tsv")[0]["min_length"] == "6"
    code, out, _ = run_cli(capsys, "orderq", "--q", "4", "--pi")
    record = parse_records(out, "tsv")[0]
    assert (record["pi"], record["pi_prime"]) == ("000100", "001000")
    code, out, _ = run_cli(capsys, "orderq", "--q", "2", "--verify")
    assert code == 0
    assert all(r["status"] == "pass" for r in parse_records(out, "tsv"))


def test_types_and_fibword(capsys):
    code, out, _ = run_cli(capsys, "types", "--ell", "2", "--partition")
    assert code == 0
    records = parse_records(out, "tsv")
    tags = {r["element"]: r["type"] for r in records}
    assert tags["0001"] == "T01" and tags["0010"] == "T10"
    code, out, _ = run_cli(capsys, "fibword", "--ell", "3", "--partition")
    records = parse_records(out, "tsv")
    assert [r["block"] for r in records] == ["ba", "ba", "ab", "ab"]


def test_wheel_subcommands(capsys):
    code, out, _ = run_cli(capsys, "wheel", "--ell", "4", "--count")
    record = parse_records(out, "tsv")[0]
    assert record["backtracking"] == record["determinant"] == "45"
    code, out, _ = run_cli(capsys, "wheel", "--ell", "2", "--verify-bijection")
    assert code == 0 and parse_records(out, "tsv")[0]["status"] == "pass"


def test_demo_base(capsys):
    code, out, _ = run_cli(capsys, "demo-base", "--base", "10", "--q", "7")
    assert code == 0
    multiples = [r["multiple"] for r in parse_records(out, "tsv")]
    assert multiples == ["142857", "285714", "428571", "571428", "714285", "857142", "000000"]


def test_gcd_check(capsys):
    code, out, _ = run_cli(capsys, "gcd-check", "--max", "10")
    assert code == 0
    assert all(r["status"] == "pass" for r in parse_records(out, "tsv"))


def test_gcd_check_bound(capsys):
    # the report holds (max - 1)^2 pair checks
    code, out, _ = run_cli(capsys, "gcd-check", "--max", "200")
    assert code == 0 and len(parse_records(out, "tsv")) == 199 * 200 // 2 + 100
    assert run_cli(capsys, "gcd-check", "--max", "201") == (
        3,
        "",
        "error: max_ell=201 exceeds gcd-check bound 200\n",
    )


@pytest.mark.parametrize("base", ["1", "0", "-3"])
def test_demo_base_below_two_is_refused(capsys, base):
    assert run_cli(capsys, "demo-base", "--base", base, "--q", "3") == (
        2,
        "",
        f"error: base must be > 1, got {base}\n",
    )


def test_demo_base_bound(capsys):
    for q in ("501", "100003"):
        assert run_cli(capsys, "demo-base", "--base", "10", "--q", q) == (
            3,
            "",
            f"error: q={q} exceeds demo-base bound 500\n",
        )


def test_verify_small_bounds(capsys):
    code, out, _ = run_cli(capsys, "--max-ell", "2", "--max-q", "2", "verify")
    assert code == 0
    records = parse_records(out, "tsv")
    assert all(r["status"] in ("pass", "discrepancy") for r in records)
    assert any(r["status"] == "discrepancy" for r in records)


def test_invalid_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "reduce", "0x1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "reduce", "000")  # odd length
    assert code == 2
    code, _, err = run_cli(capsys, "demo-base", "--base", "10", "--q", "6")
    assert code == 2


def test_resource_bound_exit_code(capsys):
    code, _, err = run_cli(capsys, "group", "--ell", "40", "--count")
    assert code == 3


def test_fibword_bound(capsys):
    # the prefix has F(2l-2) letters, so the bound is what keeps a large --ell finite
    assert run_cli(capsys, "fibword", "--ell", "11", "--partition") == (
        3,
        "",
        "error: ell=11 exceeds enumeration bound 10\n",
    )
    code, out, _ = run_cli(capsys, "--max-ell", "11", "fibword", "--ell", "11", "--partition")
    assert code == 0
    assert len(out.splitlines()) == 1 + 199  # header, then d(11) = 199 blocks


@pytest.mark.parametrize(
    "argv, message",
    [
        (["group", "--ell", "1", "--count"], "ell=1 exceeds enumeration bound 0"),
        (["types", "--ell", "1", "--partition"], "ell=1 exceeds enumeration bound 0"),
        (["wheel", "--ell", "1", "--trees"], "ell=1 exceeds enumeration bound 0"),
        (["orderq", "--q", "2", "--elements"], "canonical length 6 for q=2 exceeds enumeration bound 2*0"),
        (["fibword", "--ell", "3", "--partition"], "ell=3 exceeds enumeration bound 0"),
    ],
)
def test_zero_max_ell_is_a_bound(capsys, argv, message):
    assert run_cli(capsys, "--max-ell", "0", *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("bound", ["--max-ell", "--max-q"])
def test_zero_verify_bound_is_refused(capsys, bound):
    assert run_cli(capsys, bound, "0", "verify") == (
        2,
        "",
        "error: bounds must satisfy max_ell >= 1, max_q >= 2\n",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-ell", "11"], "max_ell=11 exceeds verify ceiling 10 (criterion 9, balanced partition)"),
        (["--max-q", "101"], "max_q=101 exceeds verify ceiling 100 (criterion 5, minimal length)"),
    ],
)
def test_verify_ceiling_is_refused_before_any_criterion(capsys, monkeypatch, argv, message):
    def no_work(bound):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(verify, "criterion_cardinalities", no_work)
    assert run_cli(capsys, *argv, "verify") == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, bounds",
    [([], {}), (["--max-ell", "2"], {"max_ell": 2}), (["--max-q", "3"], {"max_q": 3})],
)
def test_verify_passes_only_the_bounds_given(capsys, monkeypatch, argv, bounds):
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return verify.VerificationReport([])

    monkeypatch.setattr(verify, "run_verify", record)
    assert run_cli(capsys, *argv, "verify")[0] == 0
    assert calls == [((), bounds)]


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_orbit_cap_below_one_is_refused(capsys, cap):
    assert run_cli(capsys, "orbit", "11", "--cap", cap) == (2, "", f"error: size cap {cap} below 1\n")


def test_cache_round_trip(tmp_path):
    records = [{"element": "0101"}, {"element": "0001"}]
    cache.cache_store(str(tmp_path), "unit:demo", records)
    assert cache.cache_load(str(tmp_path), "unit:demo") == records


def test_cache_miss_and_stale(tmp_path):
    assert cache.cache_load(str(tmp_path), "missing") is None
    path = cache.cache_store(str(tmp_path), "k", [{"x": "1"}])
    text = open(path).read().replace("circfib-cache 1 ", "circfib-cache 0 ")
    open(path, "w").write(text)
    assert cache.cache_load(str(tmp_path), "k") is None  # stale version: recompute


def test_cache_corrupt_warns(tmp_path, capsys):
    path = cache.cache_store(str(tmp_path), "k", [{"x": "1", "y": "2"}])
    with open(path, "w") as fh:
        fh.write("garbage\nmore garbage\n")
    assert cache.cache_load(str(tmp_path), "k") is None
    assert "corrupt" in capsys.readouterr().err


def test_cli_uses_cache(tmp_path, capsys):
    code, first, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "group", "--ell", "3", "--list")
    assert code == 0
    assert os.listdir(str(tmp_path))
    code, second, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "group", "--ell", "3", "--list")
    assert first == second


@pytest.mark.parametrize("argv", [["group", "--ell", "3", "--list"], ["wheel", "--ell", "3", "--map"]])
def test_warm_cache_keeps_max_ell_bound(tmp_path, capsys, argv):
    # the same invocation gives the same answer whatever the cache holds
    assert run_cli(capsys, "--cache-dir", str(tmp_path), *argv)[0] == 0
    assert run_cli(capsys, "--cache-dir", str(tmp_path), "--max-ell", "2", *argv) == (
        3,
        "",
        "error: ell=3 exceeds enumeration bound 2\n",
    )


@pytest.mark.parametrize("argv", [["group", "--ell", "3", "--list"], ["wheel", "--ell", "3", "--map"]])
def test_unwritable_cache_warns_and_prints(tmp_path, capsys, argv):
    # a cache directory that is a regular file cannot be written: one warning,
    # and the records a run without a cache prints
    blocker = tmp_path / "file"
    blocker.write_text("")
    plain = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, "--cache-dir", str(blocker), *argv)
    assert (code, out, "") == plain
    assert len(err.splitlines()) == 1 and err.startswith("warning: cannot write cache entry ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (
            ["group", "--ell", "2", "--list"],
            "group-elements_ell_2.tsv",
            "circfib-cache 1 group-elements:ell=2\nelement\n0001\n0010\n0100\n0101\n1000\n",
        ),
        (
            ["wheel", "--ell", "2", "--map"],
            "wheel-map_ell_2.tsv",
            "circfib-cache 1 wheel-map:ell=2\nspokes\trims\traw_word\tnormal_form\n"
            "11\t00\t1111\t0101\n10\t10\t1001\t0100\n10\t01\t1100\t0010\n"
            "01\t10\t0011\t1000\n01\t01\t0110\t0001\n",
        ),
    ],
)
def test_cache_file_bytes(tmp_path, capsys, argv, name, text):
    # the stored entry is pinned byte for byte, so CACHE_VERSION stays valid
    run_cli(capsys, "--cache-dir", str(tmp_path), *argv)
    assert os.listdir(str(tmp_path)) == [name]
    assert (tmp_path / name).read_bytes() == text.encode()


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    code, out, _ = run_cli(capsys, "wheel", "--ell", "2", "--map")
    assert code == 0
    assert os.listdir(str(tmp_path))
    code, again, _ = run_cli(capsys, "wheel", "--ell", "2", "--map")
    assert out == again


def test_verify_default_golden_output(capsys):
    # stdout of `circfib verify` at its default bounds, byte for byte
    golden = Path(__file__).parent / "data" / "verify_default.tsv"
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out == golden.read_text()


def test_verify_deep_golden_output(capsys):
    # stdout of `circfib --max-ell 10 --max-q 100 verify`, every row at its
    # ceiling, byte for byte; criteria 2 and 6 certify groups there with
    # `certify_factors` and `pi_subgroup_index`
    golden = Path(__file__).parent / "data" / "verify_deep.tsv"
    code, out, _ = run_cli(capsys, "--max-ell", "10", "--max-q", "100", "verify")
    assert code == 0
    assert out == golden.read_text()


def test_wheel_verify_bijection_bound_comes_before_the_scan(capsys, monkeypatch):
    def no_scan(n):
        raise AssertionError(f"scanned the 2^{n} binary words")

    monkeypatch.setattr(wheels, "iter_words_binary", no_scan)
    code, out, err = run_cli(capsys, "wheel", "--ell", "40", "--verify-bijection")
    assert (code, out, err) == (3, "", "error: ell=40 exceeds enumeration bound 10\n")


def test_orderq_verify_bound_comes_before_the_multiples(capsys, monkeypatch):
    from circfib import orderq

    def no_check(w, q):
        raise AssertionError(f"checked the multiples of a length-{len(w)} word")

    monkeypatch.setattr(orderq, "multiples_match", no_check)
    message = "error: canonical length 1996 for q=997 exceeds enumeration bound 2*12\n"
    assert run_cli(capsys, "orderq", "--q", "997", "--verify") == (3, "", message)


# stdout, stderr and exit code of invocations of every command and mode,
# `verify` at its smallest bounds among them, including bound and input
# errors; the arithmetic cases run at lengths 8 to 1000
CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _case_id(case):
    # long word arguments are shortened to their head and character count
    return " ".join(a if len(a) <= 24 else f"{a[:12]}...[{len(a)}]" for a in case["argv"])


@pytest.mark.parametrize("case", CLI_GOLDEN, ids=_case_id)
def test_cli_golden_output(capsys, case):
    assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("module", ["circfib", "circfib.cli"])
def test_python_dash_m(capsys, module):
    expected = run_cli(capsys, "reduce", "020111")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", module, "reduce", "020111"], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == expected

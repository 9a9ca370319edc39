import argparse
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from circfib import cache, cli, verify, wheels
from circfib.cli import dispatch, main, render
from circfib.errors import CircfibError
from circfib.rewrite import OrbitResult


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


def test_python_m_circfib_runs_the_console_command(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["circfib", "reduce", "020111"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("circfib", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "word\tnormal_form\n020111\t010010\n"


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
    # canonical length 60: the q^2 words are bounded, not their length
    code, out, _ = run_cli(capsys, "orderq", "--q", "10", "--elements")
    assert code == 0 and len(parse_records(out, "tsv")) == 100


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


# each command with a required choice of one mode: its argv without a mode,
# two modes it refuses together, --help at 80 columns, and the two errors
MODE_GROUPS = {
    "group": (
        ["--ell", "2"],
        ["--list", "--table"],
        """\
usage: circfib group [-h] --ell ELL (--list | --count | --structure | --table)

options:
  -h, --help   show this help message and exit
  --ell ELL
  --list
  --count
  --structure
  --table      full addition table (ell <= 4)
""",
        "one of the arguments --list --count --structure --table is required",
        "argument --table: not allowed with argument --list",
    ),
    "orderq": (
        ["--q", "2"],
        ["--pi", "--verify"],
        """\
usage: circfib orderq [-h] --q Q (--min-length | --pi | --elements | --verify)

options:
  -h, --help    show this help message and exit
  --q Q
  --min-length
  --pi
  --elements
  --verify
""",
        "one of the arguments --min-length --pi --elements --verify is required",
        "argument --verify: not allowed with argument --pi",
    ),
    "types": (
        ["--ell", "2"],
        ["--partition", "--verify"],
        """\
usage: circfib types [-h] --ell ELL (--partition | --image-sets | --verify)

options:
  -h, --help    show this help message and exit
  --ell ELL
  --partition
  --image-sets
  --verify
""",
        "one of the arguments --partition --image-sets --verify is required",
        "argument --verify: not allowed with argument --partition",
    ),
    "wheel": (
        ["--ell", "2"],
        ["--count", "--map"],
        """\
usage: circfib wheel [-h] --ell ELL
                     (--count | --trees | --map | --verify-bijection)

options:
  -h, --help          show this help message and exit
  --ell ELL
  --count
  --trees
  --map
  --verify-bijection
""",
        "one of the arguments --count --trees --map --verify-bijection is required",
        "argument --map: not allowed with argument --count",
    ),
}


@pytest.mark.parametrize("command", sorted(MODE_GROUPS))
def test_mode_group_help_and_usage_errors(capsys, monkeypatch, command):
    required, two, help_text, no_mode, two_modes = MODE_GROUPS[command]
    usage = help_text.split("\n\n")[0] + "\n"
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code, out, err in (
        (["--help"], 0, help_text, ""),
        (required, 2, "", f"{usage}circfib {command}: error: {no_mode}\n"),
        (required + two, 2, "", f"{usage}circfib {command}: error: {two_modes}\n"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert (exc.value.code, *capsys.readouterr()) == (code, out, err), argv


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
        "error: --max=201 exceeds gcd-check bound 200\n",
    )
    assert run_cli(capsys, "gcd-check", "--max", "1") == (2, "", "error: --max must be >= 2, got 1\n")


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


@pytest.mark.parametrize(
    "argv, length",
    [
        (["orderq", "--q", "499973", "--pi"], 333316),  # the canonical length
        (["--max-ell", "1000000", "group", "--ell", "1000000", "--structure"], 2000000),
        (["reduce", "1" + "0" * 100001], 100002),
    ],
    ids=["orderq-pi", "group-structure", "reduce"],
)
def test_length_past_the_fibonacci_ceiling_is_refused(capsys, argv, length):
    message = f"error: length {length} exceeds the Fibonacci table ceiling 100000\n"
    assert run_cli(capsys, *argv) == (3, "", message)


def test_group_order_of_any_size_is_printed():
    # L(40000) - 2 has 8,360 digits, past the 4,300 that str() allows by
    # default since Python 3.10.7; a subprocess keeps the test's own
    # Fibonacci table small.  Decimal turns it into text with no such limit.
    from decimal import Decimal

    lucas = [2, 1]
    for _ in range(40000 - 1):
        lucas = [lucas[1], lucas[0] + lucas[1]]
    order = str(Decimal(lucas[1] - 2))
    assert len(order) == 8360
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    argv = ["--max-ell", "20000", "group", "--ell", "20000", "--count"]
    done = subprocess.run(
        [sys.executable, "-m", "circfib", *argv], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"ell\torder\n20000\t{order}\n", "")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit before 3.10.7")
def test_integer_text_past_the_limit_is_still_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", "--ell", "1" * 5000, "--count"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


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
        (["fibword", "--ell", "3", "--partition"], "ell=3 exceeds enumeration bound 0"),
    ],
)
def test_zero_max_ell_is_a_bound(capsys, argv, message):
    assert run_cli(capsys, "--max-ell", "0", *argv) == (3, "", f"error: {message}\n")


def test_max_ell_does_not_bound_orderq(capsys):
    # --max-ell bounds --ell alone; orderq has no --ell
    expected = run_cli(capsys, "orderq", "--q", "2", "--elements")
    assert expected[0] == 0
    assert run_cli(capsys, "--max-ell", "0", "orderq", "--q", "2", "--elements") == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["group", "--ell", "11", "--list"], "ell=11 exceeds enumeration bound 10"),
        (["group", "--ell", "11", "--count"], "ell=11 exceeds enumeration bound 10"),
        (["group", "--ell", "11", "--structure"], "ell=11 exceeds enumeration bound 10"),
        (["wheel", "--ell", "11", "--count"], "ell=11 exceeds enumeration bound 10"),
        (["wheel", "--ell", "11", "--trees"], "ell=11 exceeds enumeration bound 10"),
        (["wheel", "--ell", "11", "--map"], "ell=11 exceeds enumeration bound 10"),
    ],
)
def test_no_max_ell_refuses_at_the_library_default(capsys, argv, message):
    assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")


ELL_MODES = [
    ("group", "--list"), ("group", "--count"), ("group", "--structure"), ("group", "--table"),
    ("types", "--partition"), ("types", "--image-sets"), ("types", "--verify"),
    ("fibword", "--partition"),
    ("wheel", "--count"), ("wheel", "--trees"), ("wheel", "--map"), ("wheel", "--verify-bijection"),
]


BOUND_ORDER = [
    # --ell 0 is invalid in every mode, but the bound is checked first
    *((["--max-ell", "-1", command, "--ell", "0", mode], "ell=0 exceeds enumeration bound -1")
      for command, mode in ELL_MODES),
    # an ell above both the bound and the table's ceiling gets the bound's message
    (["group", "--ell", "11", "--table"], "ell=11 exceeds enumeration bound 10"),
    (["--max-ell", "12", "group", "--ell", "5", "--table"], "addition table supported only for ell <= 4"),
]


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0])) for case in BOUND_ORDER])
def test_bound_comes_before_every_other_ell_check(capsys, argv, message):
    assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")


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


def test_verify_exits_1_on_a_failed_claim(capsys, monkeypatch):
    # a discrepancy is printed but does not fail the run; a failed claim does
    claims = [
        verify.Claim("8", "T01 image set ell=2", verify.DISCREPANCY, "constant offset +1"),
        verify.Claim("1", "order ell=1", verify.FAIL, "computed 2"),
    ]
    lines = [
        "criterion\tsubject\tstatus\tdetail\n",
        "8\tT01 image set ell=2\tdiscrepancy\tconstant offset +1\n",
        "1\torder ell=1\tfail\tcomputed 2\n",
    ]
    for count, code in ((1, 0), (2, 1)):
        monkeypatch.setattr(verify, "run_verify", lambda: verify.VerificationReport(claims[:count]))
        assert run_cli(capsys, "verify") == (code, "".join(lines[: count + 1]), "")


@pytest.mark.parametrize("argv, caps", [([], {}), (["--cap", "5"], {"size_cap": 5})])
def test_orbit_passes_only_the_cap_given(capsys, monkeypatch, argv, caps):
    # without --cap, rewrite.orbit's own default holds
    calls = []

    def record(word, digit_cap, **kwargs):
        calls.append(kwargs)
        return OrbitResult(frozenset({word}), False)

    monkeypatch.setattr(cli, "orbit", record)
    assert run_cli(capsys, "orbit", "0101", *argv) == (0, "member\n0101\n", "")
    assert calls == [caps]


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


def test_cache_row_with_wrong_field_count_warns(tmp_path, capsys):
    path = cache.cache_store(str(tmp_path), "k", [{"x": "1", "y": "2"}])
    with open(path, "a") as fh:
        fh.write("3\n")  # one field under a two-field header
    assert cache.cache_load(str(tmp_path), "k") is None
    assert "field count mismatch" in capsys.readouterr().err


def test_cache_failed_rename_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cache.os, "replace", refuse)
    assert cache.cache_store(str(tmp_path), "k", [{"x": "1"}]) is None
    assert "cannot write cache entry" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no .cache-*.tmp and no entry


# SHA-256 of stdout of `group --ell L --list` for L = 1..10, captured from
# the recursive enumeration and the per-digit word printer they replaced
LISTING_SHA256 = {
    "tsv": [
        "dfd7b072d548a502b99b4af4921c102b8341ca598818a78ced5623757d64716e",
        "063e1e4cff58bfa827fff20e97d8a109d17e253f1662c2199c005ebd9a1d2717",
        "d4dbf2004eda6bcbaed38d89612ab842e0ec930cf6dd7d9eabe4957d3df51e71",
        "9c5f6b7a744bdf0a890d086a93718f8f3e04846bd24ad877dc49a8456d1acfff",
        "f88e833148a5574d34162dd67bdbdf6bd66e5614916959f5e86fa98f88d59cff",
        "b92b14efb621a97b7bdbe5b30c75c699f4fa24e403912042be5cdc650c7629ec",
        "eca16f5579eed7a40ebfb62608e794a7dfab093ac5a9a746ee804f68d688b4d5",
        "035a3c960f02a3c79dccff142a8e1fdbec29d5cbe1e4934e3b285c3021a815eb",
        "61414ab5ebe7b626af5f1df18284789b7812609e531fdf42cf3dec48c297a16c",
        "6e4c812611c06622b924ef56111e50af6a1a91161293e033904d8d98fcde2183",
    ],
    "jsonlines": [
        "50055c40b541504b0edbc690ce21efec0e98399e3d3282fd285d43a2097444f5",
        "ed6acab069103c44f528360c144170ca8eff1750c8c2b4fc306771cc414d11d9",
        "cbce6dbb14756e36a3390a79a446a663cdfa743dd5feb80329a7dd0da81972f6",
        "6dc813786870cc2aa28a65b8d556fd980bc0264b8a3713322f1f536edc82c207",
        "cdcf9512f5d5fdd155f75bbd97b6798020d46f5f0212770294cd6446583b2edb",
        "b9a7d936ee45f0f1e0a191047f50c0cf44de661ec25ca4c02cf81efaa1698505",
        "30f9d575babee77f2f9d7316a59395ec60215b46eca00b913b9b6d1a735711e1",
        "13d07e277f7d63661ad71222058e60d1c1c652a6d8bb15d5f5a2065060b8a1b6",
        "286b56f3403076a98a9cd9657f66cf4bc074bb7bef94c1fd9dc4f9c993d95c05",
        "f020439c0d953a7c07faf601035664016fa2636e7da74cf1441e4de21fb68fe3",
    ],
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("fmt", sorted(LISTING_SHA256))
@pytest.mark.parametrize("ell", range(1, 11))
def test_group_listing_digests(capsys, fmt, ell):
    code, out, err = run_cli(capsys, "--format", fmt, "group", "--ell", str(ell), "--list")
    assert (code, _sha256(out), err) == (0, LISTING_SHA256[fmt][ell - 1], "")


def test_group_listing_digest_cold_and_warm_cache(tmp_path, capsys):
    # group --list computes its listing every time: a cache dir changes
    # nothing and is left empty
    argv = ["--cache-dir", str(tmp_path), "group", "--ell", "9", "--list"]
    for _ in ("cold", "warm"):
        code, out, err = run_cli(capsys, *argv)
        assert (code, _sha256(out), err) == (0, LISTING_SHA256["tsv"][8], "")
    assert os.listdir(str(tmp_path)) == []


def test_old_group_cache_file_is_ignored(tmp_path, capsys):
    # a group-elements file left by an older version is neither read,
    # reported nor removed
    old = tmp_path / "group-elements_ell_3.tsv"
    old.write_text("not a cache entry\n")
    plain = run_cli(capsys, "group", "--ell", "3", "--list")
    assert run_cli(capsys, "--cache-dir", str(tmp_path), "group", "--ell", "3", "--list") == plain
    assert plain[0] == 0 and plain[2] == ""
    assert os.listdir(str(tmp_path)) == [old.name]
    assert old.read_text() == "not a cache entry\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-ell", "500", "group", "--ell", "500", "--list"],
        ["--max-ell", "600", "types", "--ell", "600", "--partition"],
        ["--max-ell", "600", "wheel", "--ell", "600", "--count"],
    ],
    ids=["group-list", "types-partition", "wheel-count"],
)
def test_listing_past_its_ceiling_is_refused(capsys, argv):
    message = f"error: ell={argv[1]} exceeds the listing ceiling 12\n"
    assert run_cli(capsys, *argv) == (3, "", message)


SCANS = {
    "wheel": ("--verify-bijection", "fiber scan ceiling 10"),
    "fibword": ("--partition", "partition ceiling 18"),
}


@pytest.mark.parametrize("command, ell", [("wheel", 11), ("wheel", 30), ("fibword", 19), ("fibword", 40)])
def test_scan_past_its_ceiling_is_refused(capsys, command, ell):
    flag, ceiling = SCANS[command]
    argv = ["--max-ell", str(ell), command, "--ell", str(ell), flag]
    assert run_cli(capsys, *argv) == (3, "", f"error: ell={ell} exceeds the {ceiling}\n")


@pytest.mark.parametrize("command", sorted(SCANS))
def test_enumeration_bound_comes_before_the_scan_ceiling(capsys, command):
    argv = [command, "--ell", "40", SCANS[command][0]]
    assert run_cli(capsys, *argv) == (3, "", f"error: ell={argv[2]} exceeds enumeration bound 10\n")


@pytest.mark.parametrize("argv", [["group", "--ell", "13", "--list"], ["wheel", "--ell", "13", "--map"]])
def test_listing_ceiling_comes_before_the_cache(tmp_path, capsys, monkeypatch, argv):
    def no_lookup(directory, key):
        raise AssertionError(f"looked up {key}")

    monkeypatch.setattr(cache, "cache_load", no_lookup)
    assert run_cli(capsys, "--cache-dir", str(tmp_path), "--max-ell", "13", *argv) == (
        3,
        "",
        "error: ell=13 exceeds the listing ceiling 12\n",
    )


def test_cli_uses_cache(tmp_path, capsys):
    code, first, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "wheel", "--ell", "3", "--map")
    assert code == 0
    assert os.listdir(str(tmp_path))
    code, second, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "wheel", "--ell", "3", "--map")
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
    # a cache directory that is a regular file cannot be written: the records
    # a run without a cache prints, with one warning from wheel --map, the
    # cached listing, and none from group --list, which never touches the cache
    blocker = tmp_path / "file"
    blocker.write_text("")
    plain = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, "--cache-dir", str(blocker), *argv)
    assert (code, out, "") == plain
    if argv[0] == "group":
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("warning: cannot write cache entry ")
    assert blocker.read_text() == ""


def test_cache_file_bytes(tmp_path, capsys):
    # the stored entry is pinned byte for byte, so CACHE_VERSION stays valid
    name = "wheel-map_ell_2.tsv"
    text = (
        "circfib-cache 1 wheel-map:ell=2\nspokes\trims\traw_word\tnormal_form\n"
        "11\t00\t1111\t0101\n10\t10\t1001\t0100\n10\t01\t1100\t0010\n"
        "01\t10\t0011\t1000\n01\t01\t0110\t0001\n"
    )
    run_cli(capsys, "--cache-dir", str(tmp_path), "wheel", "--ell", "2", "--map")
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
    def no_scan(ell):
        raise AssertionError(f"generated the tree words of the {ell}-wheel")

    monkeypatch.setattr(wheels, "_tree_words", no_scan)
    code, out, err = run_cli(capsys, "wheel", "--ell", "40", "--verify-bijection")
    assert (code, out, err) == (3, "", "error: ell=40 exceeds enumeration bound 10\n")


def test_orderq_verify_bound_comes_before_the_multiples(capsys, monkeypatch):
    from circfib import orderq

    def no_check(w, q):
        raise AssertionError(f"checked the multiples of a length-{len(w)} word")

    monkeypatch.setattr(orderq, "multiples_match", no_check)
    message = (
        "error: q=997 needs 994009 words of length 1996, "
        "past the order-q group ceiling of 1000000 digits\n"
    )
    assert run_cli(capsys, "orderq", "--q", "997", "--verify") == (3, "", message)


# stdout of `orderq --q 90 --elements`, the largest q under the order-q
# group ceiling: 8,100 words of length 120 with their primitive periods
ORDERQ_90_SHA256 = {
    "tsv": "91801058481339a65a2d9f55d42b1732f8845ec333b205edf4118b8b4baab4ca",
    "jsonlines": "35d8614ea31653c9362bc5f53140bf84f8a2d25a59e1ab6e266c2b28b01112f4",
}


@pytest.mark.parametrize("fmt", sorted(ORDERQ_90_SHA256))
def test_orderq_elements_digest(capsys, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, "orderq", "--q", "90", "--elements")
    assert (code, _sha256(out), err) == (0, ORDERQ_90_SHA256[fmt], "")


# sha256 of the stdout of `wheel --ell 10 --trees` and `--map`, 15,125 trees each
WHEEL_10_SHA256 = {
    ("--trees", "tsv"): "0feb4dc2852da78d1d99278b5ff2047e26660c56df45c0233f223dc85ae9fac4",
    ("--trees", "jsonlines"): "73d3787a3c918ce6e1f0fa4dc84d53b2176e6ca9e388a9f10fb5c67959b56fe9",
    ("--map", "tsv"): "ea5d5fdcdfab2f7e15cda57f675406e11b5e442084fe90f5b45491a37542b113",
    ("--map", "jsonlines"): "ce1775afa89e983377147e19280c938f888e6823f07a08ae3ed23f28b0110a38",
}


@pytest.mark.parametrize("mode, fmt", sorted(WHEEL_10_SHA256))
def test_wheel_listing_digests(capsys, mode, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, "wheel", "--ell", "10", mode)
    assert (code, _sha256(out), err) == (0, WHEEL_10_SHA256[mode, fmt], "")


@pytest.mark.parametrize("fmt", ["tsv", "jsonlines"])
def test_wheel_map_digest_cold_and_warm_cache(tmp_path, capsys, fmt):
    argv = ["--format", fmt, "--cache-dir", str(tmp_path), "wheel", "--ell", "10", "--map"]
    for _ in ("cold", "warm"):
        code, out, err = run_cli(capsys, *argv)
        assert (code, _sha256(out), err) == (0, WHEEL_10_SHA256["--map", fmt], "")
    assert os.listdir(str(tmp_path)) == ["wheel-map_ell_10.tsv"]


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


def test_dispatch_refuses_an_unknown_command():
    # argparse admits only the known commands, so only a caller of dispatch can get here
    args = argparse.Namespace(command="bogus", max_ell=None)
    with pytest.raises(CircfibError, match="unknown command 'bogus'"):
        dispatch(args)

"""The CLI's bounded runs, one row each, and the one runner that checks them.

Every fixed ceiling of the CLI, a module-level ``*_CEILING``, ``*_BOUND``
or ``*_LIMIT`` of ``circfib`` or the deepest ``verify.DEPTHS`` row of a
kind, has a row inside it, which must exit 0 within its timeout and its
peak RSS bound, and a row past it, which must exit 3 within 10 s and print
nothing (``tests/test_cli_bounds.py`` holds the table to that).  An
accepted row's peak bound is about three times its peak when the bound was
set, and ``measured`` keeps the time and peak of three runs when the table
was written, on a 2-vCPU host, Python 3.11.

Run it with the package importable, installed or through ``PYTHONPATH=src``:

    python3 tests/cli_bounds.py

Each row runs as ``python -m circfib`` in a child of its own, without
``CIRCFIB_CACHE``, and the child's own peak RSS is read from ``os.wait4``
(``RUSAGE_CHILDREN`` would be a running maximum over every row).  The
runner prints one line per row and exits 1 if any row has the wrong exit
code, runs past its timeout or its peak bound, or prints the wrong stdout.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import tempfile
import time
from typing import NamedTuple


class Row(NamedTuple):
    bounds: tuple[str, ...]  # the ceilings the row exercises, as module.NAME
    argv: str  # circfib's arguments, split on whitespace
    code: int  # 0 inside every ceiling, 3 past one
    timeout: float  # seconds
    peak_mb: float | None  # peak RSS bound of an accepted row
    measured: str  # time and peak RSS when the row was written
    stdout: str | None = None  # the exact stdout, if checked as text
    sha256: str | None = None  # the digest of stdout, if checked so


def refused(bounds, argv, measured):
    return Row(bounds, argv, 3, 10, None, measured, stdout="")


def accepted(bounds, argv, peak_mb, measured, timeout=10, **stdout):
    return Row(bounds, argv, 0, timeout, peak_mb, measured, **stdout)


def _comma_word(top: str) -> str:
    """60,000 comma digits, an argument of about 120 KB, under Linux's 128 KiB
    limit for one argument, with three wide digits: ``top`` and two of 10^9."""
    digits = ["0", "1", "2"] * 20000
    digits[7], digits[30001], digits[59998] = top, "1000000000", "1000000000"
    return ",".join(digits)


ENUM = ("cli.DEFAULT_ENUM_BOUND",)
TABLE = ("cli.TABLE_CEILING",)
GCD = ("group.GCD_CHECK_BOUND",)
LISTING = ("group.LISTING_CEILING",)
CYCLIC = ("baseb.CYCLIC_GROUP_BOUND",)
FIB = ("fibcore.FIB_CEILING",)
FIBER = ("wheels.FIBER_SCAN_CEILING",)
PARTITION = ("typology.PARTITION_CEILING",)
P_GROUP = ("orderq.P_GROUP_CEILING",)
SCAN = ("orderq._SCAN_LIMIT",)
VERIFY_ELL = ("verify.DEPTHS[ell=10]",)
VERIFY_Q = ("verify.DEPTHS[q=100]",)

ROWS = [
    # past each ceiling, refused at once; an ell above the default --max-ell is
    # refused by the CLI alone, and the listing, scan and partition ceilings
    # hold whatever --max-ell says
    refused(GCD, "gcd-check --max 100000", "0.13-0.18 s, 18 MB"),
    refused(CYCLIC, "demo-base --base 10 --q 100003", "0.13-0.16 s, 18 MB"),
    refused(VERIFY_ELL, "--max-ell 11 verify", "0.11-0.18 s, 18 MB"),
    refused(VERIFY_Q, "--max-q 100000 verify", "0.10-0.21 s, 18 MB"),
    # the canonical length of q = 499973 is 333,316, past the Fibonacci table
    refused(FIB, "orderq --q 499973 --pi", "0.16-0.28 s, 18 MB"),
    refused(ENUM, "group --ell 11 --structure", "0.09-0.13 s, 18 MB"),
    refused(ENUM, "wheel --ell 11 --count", "0.10-0.15 s, 18 MB"),
    refused(FIB, "--max-ell 1000000 group --ell 1000000 --structure", "0.08-0.14 s, 18 MB"),
    refused(LISTING, "--max-ell 500 group --ell 500 --list", "0.10-0.16 s, 18 MB"),
    refused(LISTING, "--max-ell 600 types --ell 600 --partition", "0.10-0.20 s, 18 MB"),
    refused(LISTING, "--max-ell 600 wheel --ell 600 --count", "0.09-0.17 s, 18 MB"),
    refused(FIBER, "--max-ell 30 wheel --ell 30 --verify-bijection", "0.13-0.16 s, 18 MB"),
    refused(PARTITION, "--max-ell 40 fibword --ell 40 --partition", "0.11-0.17 s, 18 MB"),
    refused(P_GROUP, "orderq --q 997 --elements", "0.11-0.15 s, 18 MB"),
    # --max-ell does not bound orderq
    refused(P_GROUP, "--max-ell 1000 orderq --q 194 --verify", "0.10-0.14 s, 18 MB"),
    # a length past the Fibonacci table's ceiling (10^5), before the table grows
    refused(FIB, f"reduce {'1' * 100002}", "0.12-0.16 s, 18-19 MB"),
    refused(SCAN, "orderq --q 1000003 --min-length", "0.37-0.39 s, 18-19 MB"),
    refused(TABLE, "group --ell 5 --table", "0.12-0.16 s, 18-19 MB"),
    # inside each ceiling
    accepted(GCD, "gcd-check --max 200", 72, "0.34-0.40 s, 24-25 MB"),
    accepted(CYCLIC, "demo-base --base 10 --q 499", 48, "0.45-0.47 s, 18-19 MB"),
    accepted((*FIBER, *ENUM), "wheel --ell 10 --verify-bijection", 72, "0.31-0.33 s, 23-24 MB"),
    accepted(LISTING, "--max-ell 12 group --ell 12 --list", 210, "0.56-0.62 s, 70 MB"),
    accepted(PARTITION, "--max-ell 18 fibword --ell 18 --partition", 175, "1.59-2.04 s, 58 MB"),
    accepted(LISTING, "--max-ell 12 types --ell 12 --partition", 213, "0.64-1.21 s, 71 MB"),
    accepted(LISTING, "--max-ell 12 wheel --ell 12 --count", 120, "0.95-1.54 s, 39 MB"),
    accepted(LISTING, "--max-ell 12 wheel --ell 12 --trees", 219, "0.68-1.02 s, 73 MB"),
    accepted(LISTING, "--max-ell 12 types --ell 12 --image-sets", 216, "0.91-1.24 s, 71 MB"),
    accepted(LISTING, "--max-ell 12 wheel --ell 12 --map", 354, "2.75-2.87 s, 117-118 MB"),
    accepted((*VERIFY_ELL, *VERIFY_Q), "--max-ell 10 --max-q 100 verify", 63,
             "0.64-0.68 s, 18-19 MB"),
    # the order at ell = 20000 has 8,360 digits, more than str() allows by default
    accepted(FIB, "--max-ell 20000 group --ell 20000 --structure", 273, "0.27-0.30 s, 91 MB"),
    accepted(FIB, "--max-ell 50000 group --ell 50000 --structure", 1416, "0.80-1.17 s, 472 MB"),
    accepted(P_GROUP, "orderq --q 199 --elements", 138, "0.86-1.04 s, 45 MB"),
    accepted(P_GROUP, "orderq --q 199 --verify", 72, "1.07-1.67 s, 24 MB"),
    accepted(SCAN, "orderq --q 999983 --min-length", 57, "0.20-0.31 s, 19 MB",
             stdout="q\tmin_length\n999983\t666656\n"),
    accepted(TABLE, "group --ell 4 --table", 57, "0.11-0.15 s, 19 MB"),
    # the ell = 12 wheel listings, 103,680 trees each, byte for byte
    accepted(LISTING, "--format tsv --max-ell 12 wheel --ell 12 --map", 354,
             "2.35-2.84 s, 117-118 MB",
             sha256="6f172d95a04e53793059ebe150ebd0f0b2e5f278cd2856f1b52f51ef7447df11"),
    accepted(LISTING, "--format jsonlines --max-ell 12 wheel --ell 12 --map", 387,
             "2.86-3.39 s, 129 MB",
             sha256="262b025c68980715a6ea2af45852bf1b8c2b795534c26cec859fee1f72482c76"),
    accepted(LISTING, "--format tsv --max-ell 12 wheel --ell 12 --trees", 219,
             "0.85-1.15 s, 73 MB",
             sha256="85e5a48339b7a1cb91a6bad6a9042cf6b344b688bdffc991b5af98d7b74f0d35"),
    accepted(LISTING, "--format jsonlines --max-ell 12 wheel --ell 12 --trees", 219,
             "1.62-1.77 s, 73 MB",
             sha256="056743086551d8741a0dc111a7a8385a1374470a72dde7caa4e04b781bd99d38"),
    # 10^5 ones, at the Fibonacci table's ceiling and in the identity class
    accepted(FIB, f"reduce {'1' * 10**5}", 1430, "1.25-1.46 s, 476 MB", timeout=60,
             stdout=f"word\tnormal_form\n{'1' * 10**5}\t{'01' * 50000}\n"),
    # the two routes of the input check past bytes(): three digits of 10^9,
    # checked by array("Q") and encoded as its byte body plus three wide
    # digits, and one of them 2^64, checked by one int() per digit and encoded
    # by Horner's loop
    accepted(FIB, f"reduce {_comma_word('1000000000')}", 570, "0.55-0.59 s, 190 MB"),
    accepted(FIB, f"reduce {_comma_word(str(2**64))}", 570, "0.69-0.73 s, 190 MB"),
    # the dense fallback of the array encoder: 10,000 digits of 10^9 (about
    # 110 KB), too many wide digits to add one by one, go to Horner's loop
    accepted(FIB, f"reduce {','.join(['1000000000'] * 10000)}", 72, "0.10-0.19 s, 23 MB"),
]


def run(row: Row) -> list[str]:
    """Run one row; print its line and return its faults."""
    env = {k: v for k, v in os.environ.items() if k != "CIRCFIB_CACHE"}
    argv = [sys.executable, "-m", "circfib", *row.argv.split()]
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
        timed_out = False
        while not (waited := os.wait4(pid, os.WNOHANG))[0]:
            if time.perf_counter() - start > row.timeout:
                os.kill(pid, signal.SIGKILL)
                timed_out, waited = True, os.wait4(pid, 0)
                break
            time.sleep(0.005)
        seconds = time.perf_counter() - start
        _, status, usage = waited
        code = os.waitstatus_to_exitcode(status)
        peak = usage.ru_maxrss / 1024  # KiB on Linux
        # a child's peak starts at the runner's own high-water mark, which the
        # exec keeps, so stdout is read a chunk at a time
        out.seek(0)
        digest = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 16), b""):
            digest.update(chunk)
    faults = []
    if timed_out:
        faults.append(f"killed after its timeout of {row.timeout} s")
    elif code != row.code:
        faults.append(f"expected exit {row.code}")
    if row.peak_mb is not None and peak > row.peak_mb:
        faults.append(f"peak over its bound of {row.peak_mb} MB")
    expected = row.sha256 if row.stdout is None else hashlib.sha256(row.stdout.encode()).hexdigest()
    if expected is not None and digest.hexdigest() != expected:
        faults.append("wrong stdout")
    text = row.argv if len(row.argv) <= 60 else f"{row.argv[:56]}... ({len(row.argv)} chars)"
    print(f"exit {code}, {seconds:.2f} s, {peak:.0f} MB: circfib {text}"
          + "".join(f"; FAIL: {fault}" for fault in faults), flush=True)
    return faults


def main() -> int:
    failed = sum(bool(run(row)) for row in ROWS)
    print(f"{len(ROWS)} rows, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from ternrep import (
    PRIMALITY_LIMIT,
    SCAN_HI_LIMIT,
    Eligibility,
    TernaryForm,
    brute_force_ternary,
    eligibility,
    evaluate,
)
from ternrep import cli, oracle, pipeline
from ternrep.cli import dispatch
from ternrep.oracle import CSV_HEADER, dickson_excluded
from ternrep.pipeline import witness_from_fields

JSON_FIELDS = [
    "form", "m", "eligible", "verdict", "case", "k", "s", "core", "q", "t",
    "b", "h", "point", "R", "binary_value", "binary_rep", "representation",
    "verified",
]


FORMS = [form.cli_name for form in TernaryForm]

# sha256 over json [argv, exit, stdout, stderr] of every pinned_argvs() call:
# any change to what dispatch prints, or where, shows here.  argparse's own
# text is left out, since its line wrapping follows the terminal width.
PINNED_CLI_SHA256 = "5d0fa3ed4fd0604bdf67f54b0848dc9f035f188b1b95dd9af8785421e11db468"


def pinned_argvs():
    for form in FORMS:
        for m in range(151):
            for command in ("represent", "witness", "check", "oracle"):
                for flag in ([], ["--json"]):
                    yield [command, "--form", form, "--m", str(m)] + flag
    for form in ("x2+y2+3z2", "x2+y2+7z2"):
        for m in range(151):
            for command in ("represent", "witness"):
                for flag in ([], ["--json"]):
                    yield [command, "--form", form, "--m", str(m),
                           "--fallback-oracle"] + flag
    for form in FORMS:
        for flag in ([], ["--json"]):
            yield ["scan", "--form", form, "--lo", "1", "--hi", "300"] + flag


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        code = dispatch(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def witness_json(form, m):
    code, out, err = run_cli(["witness", "--form", form, "--m", str(m), "--json"])
    assert (code, err) == (0, "")
    return out


# The m = 3 witness of x2+2y2+2z2 with h one too large
BAD_WITNESS = witness_json("x2+2y2+2z2", 3).replace('"h": 2,', '"h": 3,')


def json_keys(text):
    return [k for k, _ in json.loads(
        text, object_pairs_hook=lambda pairs: pairs)]


class TestRepresent:
    def test_golden_json(self):
        code, out, err = run_cli(
            ["represent", "--form", "x2+2y2+2z2", "--m", "3", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["representation"] == [1, 0, 1]
        assert doc["eligible"] is True
        assert doc["verified"] is True
        assert doc["case"] == "T1A"
        assert doc["q"] == 73
        assert doc["point"] == [1, -4, -2]
        assert doc["R"] == -1
        assert doc["binary_rep"] == [1, 0]

    def test_json_field_order(self):
        for argv in (
            ["represent", "--form", "x2+2y2+2z2", "--m", "3", "--json"],
            ["represent", "--form", "x2+2y2+2z2", "--m", "7", "--json"],
            ["represent", "--form", "x2+y2+7z2", "--m", "11", "--json"],
            ["witness", "--form", "x2+y2+2z2", "--m", "6", "--json"],
        ):
            _, out, _ = run_cli(argv)
            assert json_keys(out) == JSON_FIELDS

    def test_plain_output(self):
        code, out, _ = run_cli(["represent", "--form", "x2+2y2+2z2", "--m", "3"])
        assert code == 0
        assert out == "3 = 1^2 + 2*0^2 + 2*1^2\n"

    def test_obstructed_exit_and_message(self):
        code, out, _ = run_cli(["represent", "--form", "x2+y2+2z2", "--m", "14"])
        assert code == 1
        assert "4^k(16l+14)" in out

    def test_obstructed_d122(self):
        code, out, _ = run_cli(["represent", "--form", "x2+2y2+2z2", "--m", "7"])
        assert code == 1
        assert "4^k(8l+7)" in out

    def test_outside_cases_exit(self):
        code, _, _ = run_cli(["represent", "--form", "x2+y2+7z2", "--m", "11"])
        assert code == 2

    def test_fallback_oracle(self):
        code, out, _ = run_cli(
            ["represent", "--form", "x2+y2+7z2", "--m", "11",
             "--fallback-oracle", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["eligible"] is False
        assert doc["case"] == "ORACLE"
        assert doc["verified"] is True
        x, y, z = doc["representation"]
        assert evaluate(TernaryForm.D117, (x, y, z)) == 11

    def test_fallback_oracle_not_representable(self):
        # 7*(8k+3) shaped values outside the covered classes with no
        # representation at all: m = 3 works for x2+y2+7z2
        code, out, _ = run_cli(
            ["represent", "--form", "x2+y2+7z2", "--m", "3",
             "--fallback-oracle"])
        assert code == 1

    # 6 * 9^9 is one of Dickson's exceptions 9^k(9l+6): x2+y2+3z2 misses it,
    # and the unbounded search would print the same bytes after Theta(m) steps.
    def test_fallback_oracle_dickson_exception_exits_1_at_once(self):
        m = 2324522934
        detail = "covered cases are 4^k(8l+1) with ord_3(m) even"
        for flag, expected in (
            ([], "outside-covered-cases: %d %s\n" % (m, detail)),
            (["--json"], json.dumps(dict.fromkeys(JSON_FIELDS) | {
                "form": "x2+y2+3z2", "m": m, "eligible": False,
                "verdict": "outside-covered-cases", "verified": False},
                indent=2) + "\n"),
        ):
            start = time.perf_counter()
            result = run_cli(["represent", "--form", "x2+y2+3z2", "--m", str(m),
                              "--fallback-oracle"] + flag)
            assert time.perf_counter() - start < 1.0
            assert result == (1, expected, "")

    def test_fallback_oracle_search_budget_exits_5(self, monkeypatch):
        # 7 * 7003 is outside the covered cases and not a value of the form
        monkeypatch.setattr(oracle, "ORACLE_STEP_BUDGET", 1000)
        result = run_cli(["represent", "--form", "x2+y2+7z2", "--m", "49021",
                          "--fallback-oracle"])
        assert result == (5, "", "resource cap: oracle search for m = 49021 "
                                 "passed its budget of 1000 (x, y) steps\n")

    def test_fallback_oracle_rejected_for_exact_forms(self):
        for name in ("x2+2y2+2z2", "x2+y2+2z2"):
            code, _, err = run_cli(
                ["represent", "--form", name, "--m", "5", "--fallback-oracle"])
            assert code == 4
            assert "fallback-oracle" in err

    def test_resource_cap_exit(self, monkeypatch):
        monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", 1)
        code, out, err = run_cli(
            ["represent", "--form", "x2+2y2+2z2", "--m", "3"])
        assert code == 5
        assert out == ""
        assert err == "resource cap: no auxiliary prime for core 3 within 1 candidates\n"

    @pytest.mark.parametrize("command", ["represent", "witness"])
    def test_primality_bound_exit(self, command):
        # 3 * (2^89 - 1): the core is above the proven primality bound, so
        # it is rejected before any search
        code, out, err = run_cli(
            [command, "--form", "x2+2y2+2z2", "--m", "1856910058928070412348686333"])
        assert code == 5
        assert out == ""
        assert err.startswith("resource cap:")

    def test_usage_errors(self):
        assert run_cli(["represent", "--form", "bogus", "--m", "3"])[0] == 4
        assert run_cli(["represent", "--form", "x2+2y2+2z2"])[0] == 4
        assert run_cli(["represent", "--form", "x2+2y2+2z2", "--m", "0"])[0] == 4
        assert run_cli(["nonsense"])[0] == 4
        assert run_cli([])[0] == 4

    def test_byte_determinism(self):
        argv = ["represent", "--form", "x2+y2+3z2", "--m", "433", "--json"]
        assert run_cli(argv) == run_cli(argv)


class TestWitnessCommand:
    def test_trail_lists_every_field(self):
        code, out, _ = run_cli(["witness", "--form", "x2+2y2+2z2", "--m", "3"])
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == JSON_FIELDS
        assert "point: (1, -4, -2)" in lines
        assert "verified: true" in lines

    def test_json_matches_represent(self):
        a = run_cli(["witness", "--form", "x2+2y2+2z2", "--m", "3", "--json"])
        b = run_cli(["represent", "--form", "x2+2y2+2z2", "--m", "3", "--json"])
        assert a == b


class TestCheck:
    def test_eligible(self):
        code, out, _ = run_cli(["check", "--form", "x2+y2+3z2", "--m", "9"])
        assert code == 0
        assert out.startswith("eligible")

    def test_obstructed(self):
        assert run_cli(["check", "--form", "x2+2y2+2z2", "--m", "7"])[0] == 1

    def test_outside(self):
        assert run_cli(["check", "--form", "x2+y2+7z2", "--m", "3"])[0] == 2

    def test_json(self):
        code, out, _ = run_cli(
            ["check", "--form", "x2+y2+2z2", "--m", "14", "--json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["eligible"] is False
        assert doc["verdict"] == "obstructed"


class TestOracleCommand:
    def test_found(self):
        code, out, _ = run_cli(
            ["oracle", "--form", "x2+y2+7z2", "--m", "11", "--json"])
        assert code == 0
        assert json.loads(out)["representation"] == [0, 2, 1]

    def test_not_found(self):
        code, out, _ = run_cli(["oracle", "--form", "x2+2y2+2z2", "--m", "7"])
        assert code == 1
        assert "no representation" in out

    # 7 * 4^14, 14 * 4^14 and 6 * 9^9: a search would take Theta(m) steps
    @pytest.mark.parametrize("form, m", [("x2+2y2+2z2", 1879048192),
                                         ("x2+y2+2z2", 3758096384),
                                         ("x2+y2+3z2", 2324522934)])
    def test_obstructed_exits_1_at_once(self, form, m):
        for flag, expected in (
            ([], "no representation: %d\n" % m),
            (["--json"], '{\n  "form": "%s",\n  "m": %d,\n  "found": false,\n'
                         '  "representation": null\n}\n' % (form, m)),
        ):
            start = time.perf_counter()
            result = run_cli(["oracle", "--form", form, "--m", str(m)] + flag)
            assert time.perf_counter() - start < 1.0
            assert result == (1, expected, "")

    def test_obstructed_agrees_with_the_search(self):
        ruled_out = {
            TernaryForm.D122: lambda m: eligibility(TernaryForm.D122, m).kind
            is Eligibility.OBSTRUCTED,
            TernaryForm.D112: lambda m: eligibility(TernaryForm.D112, m).kind
            is Eligibility.OBSTRUCTED,
            TernaryForm.D113: dickson_excluded,
        }
        for form, excluded in ruled_out.items():
            for m in range(1, 2001):
                if excluded(m):
                    assert brute_force_ternary(form, m) is None
                    assert run_cli(["oracle", "--form", form.cli_name, "--m", str(m)]
                                   ) == (1, "no representation: %d\n" % m, "")

    # 7 * 4^41 is answered (0, 0, 2^41) by a short search, but lies above
    # the supported range like the 300-digit m
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("m", [PRIMALITY_LIMIT, 7 * 4**41, 10**300 + 5],
                             ids=["limit", "7*4^41", "300-digit"])
    def test_above_the_primality_bound_exits_5_at_once(self, form, m):
        argvs = [["oracle", "--form", form, "--m", str(m)]]
        if form in ("x2+y2+3z2", "x2+y2+7z2"):
            argvs.append(["represent", "--form", form, "--m", str(m), "--fallback-oracle"])
        for argv in argvs:
            start = time.perf_counter()
            result = run_cli(argv)
            assert time.perf_counter() - start < 1.0
            assert result[:2] == (5, "")
            assert result[2].startswith("resource cap: ")
            assert result[2].endswith(" is at or above the proven primality bound\n")

    def test_below_the_primality_bound_still_searches(self, monkeypatch):
        m = 2 * 4**40
        start = time.perf_counter()
        result = run_cli(["oracle", "--form", "x2+y2+2z2", "--m", str(m)])
        assert time.perf_counter() - start < 1.0
        assert result == (0, "%d = 0^2 + 0^2 + 2*%d^2\n" % (m, 2**40), "")
        monkeypatch.setattr(oracle, "brute_force_ternary", lambda form, m: (m,))
        top = PRIMALITY_LIMIT - 1
        assert oracle.oracle_triple(TernaryForm.D117, top) == (top,)

    def test_search_budget_exits_5(self, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_STEP_BUDGET", 1000)
        for flag in ([], ["--json"]):
            result = run_cli(["oracle", "--form", "x2+y2+7z2", "--m", "49021"] + flag)
            assert result == (5, "", "resource cap: oracle search for m = 49021 "
                                     "passed its budget of 1000 (x, y) steps\n")


class TestScan:
    def test_csv_header_and_shape(self):
        code, out, _ = run_cli(
            ["scan", "--form", "x2+2y2+2z2", "--lo", "1", "--hi", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        assert out.endswith("\n")

    def test_out_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "20",
             "--out", str(target)])
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert data.startswith(CSV_HEADER.encode())
        assert b"\r" not in data

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exits_4_before_the_scan(self, tmp_path, monkeypatch, where):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr("ternrep.cli.scan_compare", no_scan)
        target = tmp_path / "missing" / "rows.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli(
            ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "20",
             "--out", str(target)])
        assert (code, out) == (4, "")
        assert err.startswith("cannot write --out %s: " % target)
        assert err.endswith("\n") and err.count("\n") == 1

    # The failed write surfaces when the file is closed for the small output
    # and at the write itself for the large one.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("hi", ["2", "3000"])
    def test_failed_write_exits_4(self, hi):
        code, out, err = run_cli(
            ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", hi,
             "--out", "/dev/full"])
        assert (code, out) == (4, "")
        assert err.startswith("cannot write --out /dev/full: ")
        assert err.endswith("\n") and err.count("\n") == 1

    def test_jobs_byte_identical(self, monkeypatch, pool_sizes):
        # 30 rows per worker earn a pool of 4 here, so the pool path runs
        monkeypatch.setattr(oracle, "POOL_MIN_ROWS", 30)
        argv = ["scan", "--form", "x2+2y2+2z2", "--lo", "1", "--hi", "150"]
        serial = run_cli(argv)
        parallel = run_cli(argv + ["--jobs", "4"])
        assert pool_sizes == [4]
        assert serial == parallel

    def test_json_rows(self):
        code, out, _ = run_cli(
            ["scan", "--form", "x2+y2+3z2", "--lo", "1", "--hi", "5",
             "--json"])
        assert code == 0
        rows = json.loads(out)
        assert [r["m"] for r in rows] == [1, 2, 3, 4, 5]
        assert all(r["agree"] for r in rows)

    def test_bad_range(self):
        assert run_cli(["scan", "--form", "x2+y2+2z2", "--lo", "5",
                        "--hi", "4"])[0] == 4
        assert run_cli(["scan", "--form", "x2+y2+2z2", "--lo", "0",
                        "--hi", "4"])[0] == 4

    def test_resource_cap_exit(self, monkeypatch):
        # a cap on any row ends the scan before a row is printed
        monkeypatch.setattr(pipeline, "Q_CANDIDATE_BUDGET", 1)
        code, out, err = run_cli(
            ["scan", "--form", "x2+2y2+2z2", "--lo", "1", "--hi", "3"])
        assert code == 5
        assert out == ""
        assert err.startswith("resource cap:")
        assert err.endswith("\n") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_hi_above_scan_limit_exits_5_at_once(self, jobs):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["scan", "--form", "x2+y2+7z2", "--lo", str(SCAN_HI_LIMIT),
             "--hi", str(SCAN_HI_LIMIT + 1), "--jobs", jobs])
        assert time.perf_counter() - start < 1.0
        assert code == 5
        assert out == ""
        assert err == "resource cap: scan hi %d is above the scan limit %d\n" % (
            SCAN_HI_LIMIT + 1, SCAN_HI_LIMIT)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_refused_scan_leaves_out_file_alone(self, tmp_path, jobs):
        target = tmp_path / "keep.csv"
        target.write_bytes(b"kept\n")
        result = run_cli(
            ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", str(SCAN_HI_LIMIT + 1),
             "--out", str(target), "--jobs", jobs])
        assert result == (5, "", "resource cap: scan hi %d is above the scan limit %d\n"
                          % (SCAN_HI_LIMIT + 1, SCAN_HI_LIMIT))
        assert target.read_bytes() == b"kept\n"


class TestOptions:
    # Every option each subcommand offers; a new one must be added here.
    FLAGS = {
        "represent": {"--form", "--m", "--json", "--fallback-oracle"},
        "witness": {"--form", "--m", "--json", "--fallback-oracle"},
        "check": {"--form", "--m", "--json"},
        "oracle": {"--form", "--m", "--json"},
        "scan": {"--form", "--lo", "--hi", "--json", "--out", "--jobs"},
        "verify": set(),
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_options(self, command):
        code, out, err = run_cli([command, "--help"])
        assert (code, err) == (0, "")
        flags = set(re.findall(r"--[a-z][a-z-]*", out))
        assert flags - {"--help"} == self.FLAGS[command]

    @pytest.mark.parametrize("argv", [
        ["represent", "--form", "x2+2y2+2z2", "--m", "3"],
        ["witness", "--form", "x2+2y2+2z2", "--m", "3"],
        ["scan", "--form", "x2+2y2+2z2", "--lo", "1", "--hi", "3"],
    ], ids=lambda argv: argv[0])
    def test_max_prime_candidates_is_a_usage_error(self, argv):
        code, out, err = run_cli(argv + ["--max-prime-candidates", "5"])
        assert (code, out) == (4, "")
        assert "unrecognized arguments: --max-prime-candidates 5" in err


class TestStreams:
    COMMANDS = [[]] + [[c] for c in sorted(TestOptions.FLAGS)]
    USAGE_ERRORS = [
        ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "2", "--bogus"],
        ["check", "--form", "x2+y2+2z2"],
        ["represent", "--form", "x2+y2+5z2", "--m", "3"],
    ]
    USAGE_IDS = ["unknown-flag", "missing-m", "bad-form"]

    # argparse's text goes to dispatch's streams, never to sys.stdout/stderr
    @pytest.mark.parametrize("command", COMMANDS,
                             ids=lambda argv: argv[0] if argv else "top")
    def test_help_goes_to_out(self, command, capsys):
        code, out, err = run_cli(command + ["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: ternrep ")
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv, message", list(zip(USAGE_ERRORS, [
        "ternrep: error: unrecognized arguments: --bogus",
        "ternrep check: error: the following arguments are required: --m",
        "ternrep represent: error: argument --form: invalid choice: 'x2+y2+5z2'",
    ])), ids=USAGE_IDS)
    def test_usage_error_goes_to_err(self, argv, message, capsys):
        code, out, err = run_cli(argv)
        assert (code, out) == (4, "")
        assert err.startswith("usage: ternrep ")
        assert "\n" + message in err
        assert err.endswith("\n")
        assert capsys.readouterr() == ("", "")

    # argparse wraps at COLUMNS unless given a width; the bytes are compared
    # across two widths, not pinned, as its layout differs across versions
    @pytest.mark.parametrize("argv", [c + ["--help"] for c in COMMANDS] + USAGE_ERRORS,
                             ids=[c[0] + "-help" if c else "top-help" for c in COMMANDS]
                             + USAGE_IDS)
    def test_bytes_ignore_terminal_width(self, argv, monkeypatch):
        results = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            results.append(run_cli(argv))
        assert results[0] == results[1]


class FailingOut(io.StringIO):
    """An out stream whose write or flush fails as on a full disk."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutputErrors:
    ARGVS = [
        ["represent", "--form", "x2+y2+2z2", "--m", "5"],
        ["witness", "--form", "x2+y2+2z2", "--m", "5", "--json"],
        ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "50"],
        ["verify"],
        ["--help"],
    ]

    # verify reads BAD_WITNESS, so that it has a problem line to write
    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
    def test_failed_output_exits_4(self, argv, failing):
        err = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(BAD_WITNESS)):
            assert dispatch(argv, FailingOut(failing), err) == 4
        assert err.getvalue() == "cannot write output: No space left on device\n"

    def test_other_os_errors_stay_internal(self, monkeypatch):
        def out_of_files(*args, **kwargs):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr("ternrep.cli.scan_compare", out_of_files)
        code, out, err = run_cli(["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "5"])
        assert (code, out) == (3, "")
        assert err.startswith("internal error: OSError: ")

    # main flushes stdout in dispatch's guard, buffered or not, and a failed
    # flush leaves nothing for the flush at interpreter exit to fail on
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_stdout_exits_4(self, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ternrep", "represent", "--form",
                 "x2+y2+2z2", "--m", "5"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120,
            )
        assert proc.returncode == 4
        assert proc.stderr == "cannot write output: No space left on device\n"


class RecordingOut(io.StringIO):
    """An out stream that records the name of every write and flush."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append("write")
        return super().write(text)

    def flush(self):
        self.calls.append("flush")


class TestSingleWrite:
    # Each is the same call through run_cli and through a RecordingOut
    ARGVS = [
        ["represent", "--form", "x2+y2+2z2", "--m", "5"],
        ["witness", "--form", "x2+y2+2z2", "--m", "5"],
        ["witness", "--form", "x2+y2+7z2", "--m", "53", "--json"],
        ["check", "--form", "x2+y2+3z2", "--m", "9"],
        ["oracle", "--form", "x2+2y2+2z2", "--m", "7"],
        ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "50"],
        ["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "50", "--json"],
        ["--help"],
        ["scan", "--help"],
        ["represent", "--form", "x2+y2+2z2", "--m", "0"],
        ["represent", "--form", "x2+y2+5z2", "--m", "3"],
        ["verify"],
    ]

    # verify reads a witness with two problems
    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
    def test_one_write_then_one_flush(self, argv):
        stdin = witness_json("x2+y2+2z2", 6).replace('"m": 6', '"m": 7')
        expected = run_cli(argv, stdin)
        out, err = RecordingOut(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            code = dispatch(argv, out, err)
        assert (code, out.getvalue(), err.getvalue()) == expected
        if argv == ["verify"]:
            assert expected[1].count("\n") == 2
        assert out.calls == (["write", "flush"] if expected[1] else [])

    # A command with no stdout text leaves out untouched
    def test_out_file_leaves_out_alone(self, tmp_path):
        out = RecordingOut()
        code = dispatch(["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "50",
                         "--out", str(tmp_path / "rows.csv")], out, io.StringIO())
        assert (code, out.calls) == (0, [])
        assert len((tmp_path / "rows.csv").read_text().splitlines()) == 51

    def test_stdout_comes_before_the_stderr_line(self, monkeypatch):
        def disagreeing(*args, **kwargs):
            report = oracle.scan_compare(*args, **kwargs)
            first = report.rows[0]._replace(agree=False)
            return report._replace(rows=(first,) + report.rows[1:])

        monkeypatch.setattr("ternrep.cli.scan_compare", disagreeing)
        shared = io.StringIO()
        code = dispatch(["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "20"],
                        shared, shared)
        text = disagreeing(TernaryForm.D112, 1, 20).to_csv()
        assert "1,eligible,true,true,false," in text
        assert (code, shared.getvalue()) == (3, text + "scan found disagreement rows\n")

    def test_failed_err_keeps_the_exit_code(self):
        out = io.StringIO()
        assert dispatch(["represent", "--form", "x2+y2+2z2", "--m", "0"],
                        out, FailingOut("write")) == 4
        assert dispatch(["bogus"], out, FailingOut("write")) == 4
        assert out.getvalue() == ""


def run_closed(command, redirect):
    """Run `python -m ternrep command` under sh with a standard fd closed."""
    return subprocess.run(
        ["sh", "-c", 'exec "$@" ' + redirect, "sh", sys.executable, "-m", "ternrep"]
        + command, capture_output=True, text=True, timeout=120)


class TestClosedStreams:
    # Python sets a stream that the process starts with closed to None
    @pytest.mark.parametrize("command", [
        ["represent", "--form", "x2+y2+2z2", "--m", "5"],
        ["witness", "--form", "x2+y2+2z2", "--m", "5"],
        ["--help"],
    ], ids=lambda command: command[0])
    def test_closed_stdout_exits_4(self, command):
        proc = run_closed(command, ">&-")
        assert proc.returncode == 4
        assert proc.stderr.startswith("cannot write output: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    def test_scan_out_file_ignores_closed_stdout(self, tmp_path):
        target = tmp_path / "closed.csv"
        proc = run_closed(["scan", "--form", "x2+y2+2z2", "--lo", "1", "--hi", "50",
                           "--out", str(target)], ">&-")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(target.read_text().splitlines()) == 51

    @pytest.mark.parametrize("command, code", [
        (["represent", "--form", "x2+y2+2z2", "--m", "0"], 4),
        (["represent", "--form", "x2+y2+2z2", "--m", "14"], 1),
        (["bogus"], 4),
    ], ids=["usage", "obstructed", "bad-command"])
    def test_closed_stderr_keeps_the_exit_code(self, command, code):
        assert run_closed(command, "2>&-").returncode == code

    def test_closed_stdin_is_empty_input(self):
        proc = run_closed(["verify"], "<&-")
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == ("stdin is not JSON: Expecting value: "
                               "line 1 column 1 (char 0)\n")


class TestJsonWriter:
    # cli writes each --json object itself; its bytes must stay those of
    # json.dumps(fields, indent=2) with a trailing newline
    @pytest.mark.parametrize("argv, key, value", [
        (["witness", "--form", "x2+2y2+2z2", "--m", "3"], "case", "T1A"),
        (["witness", "--form", "x2+2y2+2z2", "--m", "4"], "case", "SMALL_CORE"),
        (["represent", "--form", "x2+2y2+2z2", "--m", "7"], "verdict", "obstructed"),
        (["represent", "--form", "x2+y2+7z2", "--m", "11"],
         "verdict", "outside-covered-cases"),
        (["represent", "--form", "x2+y2+7z2", "--m", "11", "--fallback-oracle"],
         "case", "ORACLE"),
        (["check", "--form", "x2+y2+7z2", "--m", "11"], "detail",
         "covered cases are 4^k(8l+5) with ord_7(m) even"),
        (["oracle", "--form", "x2+2y2+2z2", "--m", "3"], "found", True),
        (["oracle", "--form", "x2+2y2+2z2", "--m", "7"], "found", False),
    ])
    def test_every_kind_of_object(self, argv, key, value, monkeypatch):
        objects = []
        write = cli._json_text
        monkeypatch.setattr(cli, "_json_text",
                            lambda fields: objects.append(fields) or write(fields))
        _, out, err = run_cli(argv + ["--json"])
        assert err == ""
        [fields] = objects
        assert fields[key] == value
        assert out == json.dumps(fields, indent=2) + "\n"

    @given(st.dictionaries(
        st.text(),
        st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200)
        | st.integers(-2**200, -1) | st.text()
        | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "\u00e9\u2028\U0001f600", "\ud800"])
        | st.lists(st.integers(-2**100, 2**100)),
        min_size=1))
    def test_flat_objects(self, fields):
        assert cli._json_text(fields) == json.dumps(fields, indent=2) + "\n"

    def test_empty_list(self):
        assert cli._json_text({"a": [], "b": [0]}) == '{\n  "a": [],\n  "b": [\n    0\n  ]\n}\n'


class TestPinnedBytes:
    def test_cli_bytes(self, capsys):
        digest = hashlib.sha256()
        calls = 0
        for argv in pinned_argvs():
            digest.update(json.dumps([argv, *run_cli(argv)]).encode())
            calls += 1
        assert calls == 6048
        assert digest.hexdigest() == PINNED_CLI_SHA256
        assert capsys.readouterr() == ("", "")


class TestVerify:
    # Every witness of m <= 1000 round-trips and verifies through the CLI;
    # tests/test_acceptance.py reads every witness of m <= 20000 back from
    # its JSON object in-process
    def test_round_trip(self):
        for form in TernaryForm:
            for m in range(1, 1001):
                code, out, _ = run_cli(
                    ["witness", "--form", form.cli_name, "--m", str(m), "--json"])
                if code == 0:
                    assert witness_from_fields(json.loads(out)) == pipeline.build_witness(form, m)
                    assert run_cli(["verify"], out) == (0, "", "")

    def test_claims_are_not_read(self):
        doc = json.loads(witness_json("x2+y2+7z2", 53))
        doc.update(verified=False, eligible=False, verdict="obstructed")
        assert run_cli(["verify"], json.dumps(doc)) == (0, "", "")
        del doc["verified"], doc["eligible"], doc["verdict"]
        assert run_cli(["verify"], json.dumps(doc)) == (0, "", "")

    def test_bad_witness_exits_1(self):
        assert run_cli(["verify"], BAD_WITNESS) == (1, "b^2 + gamma*n0 != d*h\n", "")

    def test_non_witness_output_exits_1(self):
        code, out, err = run_cli(["verify"], run_cli(
            ["represent", "--form", "x2+y2+7z2", "--m", "11", "--json",
             "--fallback-oracle"])[1])
        assert (code, err) == (1, "")
        assert "k is not an integer\n" in out

    @pytest.mark.parametrize("text, message", [
        ("not json", "stdin is not JSON: Expecting value: line 1 column 1 (char 0)"),
        ("", "stdin is not JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]\n", "stdin is not a JSON object"),
        ("3", "stdin is not a JSON object"),
        ('{"m": %s}' % ("7" * 4301), "stdin is not JSON: Exceeds the limit"),
        ("[" * 100000, "stdin is not JSON: maximum recursion depth exceeded"),
    ], ids=["text", "empty", "array", "number", "huge-int", "deep"])
    def test_not_an_object_exits_4(self, text, message):
        code, out, err = run_cli(["verify"], text)
        assert (code, out) == (4, "")
        assert err.startswith(message)
        assert err.endswith("\n") and err.count("\n") == 1

    def test_no_file_argument(self):
        code, out, err = run_cli(["verify", "witness.json"], BAD_WITNESS)
        assert (code, out) == (4, "")
        assert "unrecognized arguments: witness.json" in err

    def test_selftest_is_gone(self):
        code, out, err = run_cli(["selftest"])
        assert (code, out) == (4, "")
        assert "invalid choice: 'selftest'" in err


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ternrep", "represent", "--form",
             "x2+2y2+2z2", "--m", "3", "--json"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["representation"] == [1, 0, 1]

    def test_witness_pipes_into_verify(self):
        witness = subprocess.run(
            [sys.executable, "-m", "ternrep", "witness", "--form", "x2+y2+2z2",
             "--m", "1000006", "--json"],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for text, expected in ((witness, (0, "")),
                               (witness.replace('"verified": true', '"verified": false'),
                                (0, "")),
                               (witness.replace('"m": 1000006', '"m": 1000007'),
                                (1, "4^k * s^2 * core != m\n"
                                    "representation does not evaluate to m\n"))):
            proc = subprocess.run([sys.executable, "-m", "ternrep", "verify"],
                                  input=text, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout, proc.stderr) == expected + ("",)

    def test_exit_code_survives_process_boundary(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ternrep", "represent", "--form",
             "x2+y2+2z2", "--m", "14"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1

"""Command line behavior: output bytes, document shapes, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tridet.cli as cli_module
import tridet.identities as identities_module
from tridet import (
    EntryRule,
    IdentityCase,
    PieceSet,
    SequenceKind,
    check_all,
    det_gf,
    enumerate_tilings,
    make_entries,
    registry,
)
from tridet.cli import _SEQ_BATCH, NMAX_CEILING, run
from tridet.sequences import MAX_R


def test_seq_plain_exact_bytes(capsys):
    assert run(["seq", "tribonacci", "--from", "0", "--to", "10"]) == 0
    assert capsys.readouterr().out == "0 0 1 1 2 4 7 13 24 44 81\n"


def test_seq_json_document(capsys):
    assert run(["seq", "gen-tribonacci", "--r", "4", "--from", "3", "--to", "7",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "gen-tribonacci"
    assert doc["r"] == 4
    assert doc["terms"] == ["1", "1", "2", "3", "6"]


def test_seq_csv_rows(capsys):
    assert run(["seq", "fibonacci", "--from", "2", "--to", "5", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["n", "value"], ["2", "1"], ["3", "2"], ["4", "3"], ["5", "5"]]


def _rolling_tribonacci(start, stop):
    a, b, c = 0, 0, 1
    terms = []
    for n in range(stop + 1):
        if n >= start:
            terms.append(a)
        a, b, c = b, c, a + b + c
    return terms


def test_seq_prints_terms_past_the_int_str_cap(capsys):
    cap = sys.get_int_max_str_digits()
    assert run(["seq", "tribonacci", "--from", "16400", "--to", "16410"]) == 0
    assert sys.get_int_max_str_digits() == cap  # restored for the caller
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        expected = " ".join(str(t) for t in _rolling_tribonacci(16400, 16410)) + "\n"
    finally:
        sys.set_int_max_str_digits(cap)
    assert len(out) > cap
    assert out == expected


def test_seq_output_spans_several_batches(capsys):
    stop = 5 + 3 * _SEQ_BATCH
    terms = _rolling_tribonacci(5, stop)
    assert run(["seq", "tribonacci", "--from", "5", "--to", str(stop)]) == 0
    assert capsys.readouterr().out == " ".join(map(str, terms)) + "\n"
    assert run(["seq", "tribonacci", "--from", "5", "--to", str(stop), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["n", "value"]] + [[str(n), str(t)] for n, t in enumerate(terms, start=5)]
    # the streamed document is byte for byte the one json.dumps writes whole
    assert run(["seq", "tribonacci", "--from", "5", "--to", str(stop), "--format", "json"]) == 0
    doc = {"kind": "tribonacci", "r": None, "from": 5, "to": stop, "terms": list(map(str, terms))}
    assert capsys.readouterr().out == json.dumps(doc) + "\n"


def test_cap_still_applies_while_parsing(capsys):
    huge = "9" * (sys.get_int_max_str_digits() + 1)
    assert run(["seq", "tribonacci", "--from", huge, "--to", "0"]) == 2
    assert "invalid int value" in capsys.readouterr().err


_DET14 = ("det", "--a0", "1", "--kind", "tribonacci", "--start", "3", "--stride", "2", "-n", "14")
_SEQ = ("seq", "gen-tribonacci", "--r", "5", "--from", "3", "--to", "40")
_TILINGS = ("tilings", "--length", "7", "--pieces", "1,2:2,3")
_GF = ("gf", "--family", "i22", "--r", "5", "--terms", "30")  # num longer than den
_VERIFY = ("verify", "--ids", "I-19,I-19b,I-36", "--r-set", "3,4", "--nmax", "9")  # r = None rows

# SHA-256 of stdout, pinned when the outputs were known to be right; help
# text is pinned at COLUMNS=80
GOLDEN_STDOUT = {
    ("verify",): "aae83a46eb9dbcf55832facdc910c8e8bab2bc45a552ad185c62291f6fc26e31",
    ("verify", "--format", "json"):
        "095275bde3399fc5bfe58901f7eda6a1472bf8ccb9bb912e64f1d7e8f8eb75c0",
    ("verify", "--format", "csv"):
        "eaac0f641be6bc93315367963891f1a0590e77dbf4d8d71d02890399c77784fa",
    _DET14 + ("--method", "all"):
        "5496d1b5cc35c0d4f27e1cb57cd3cc1cb84cfb211579d9ab721eb192fafb40d4",
    _DET14 + ("--method", "all", "--format", "json"):
        "45d7c621f77174ebdf37bcd283cfefc54c1988a69ca88889f58e168b54666b63",
    _DET14 + ("--method", "all", "--format", "csv"):
        "7beeae6482e5167b8e6d4fc75608d5ed541b9a58f691fb79315db6839f995e43",
    _DET14 + ("--format", "plain"):
        "8874cfd15c0e2d6f921d5d20b03268872f87cfc272e2fe61f1f5d25de3b7028b",
    _DET14 + ("--format", "json"):
        "b19a7ea66004f6699354d650c7f9e46902d2f7511a96a6a2fff38cf05537a4bd",
    _DET14 + ("--format", "csv"):
        "a534ea549b6818d5386838c2633568499add6a710466c86edbf0817131d034de",
    _SEQ + ("--format", "json"):
        "b3b48121ef480fa5458c6f612d8570f05ed784cdd0d6b6978a97bfa80ad71310",
    _SEQ + ("--format", "csv"):
        "8e6f10982b9272d79fc1375b6b61b7fc2023bf1203510e4ce6076de2af931184",
    _TILINGS + ("--format", "plain"):
        "38a407cd7d38b41132709485046d7817571b73c32433877751399e229ce11ce2",
    _TILINGS + ("--format", "json"):
        "f9ff98c5cc9cfc0cbbb0b8c730dd3b52e2d189aec353621feb6770d14c8b3c22",
    _TILINGS + ("--format", "csv"):
        "14fbd0c3e6ce101a5f51e8476c7b157bc89cdec20fdb7c57135222a6b16a8a24",
    _TILINGS + ("--enumerate", "--format", "plain"):
        "18d7c6aecac209fb8187088570d68eb5d49a59a2351f01c345b1cda642251390",
    _TILINGS + ("--enumerate", "--format", "json"):
        "d950dd5225df40d7e671d290f4dae9ed170f7a050b65ce97d9c8a45271a0ccaf",
    _TILINGS + ("--enumerate", "--format", "csv"):
        "f4d97b8c2848e051360551b8da1e019e3603ca38f3b3e27284e157144513bcec",
    _GF + ("--format", "plain"):
        "21876b03e6387ab0859b49c516644fbbedbea2a5ae5fd6b070b5073565945db3",
    _GF + ("--format", "json"):
        "cd1fefadb80a2ac83deddffe3dc843fe6652322fd0ef585ccaaa83fed1eb50be",
    _GF + ("--format", "csv"):
        "1c80b25c5e5d689362e610afb443737c77465ab82f7d0054a66914892dfbb6fb",
    _VERIFY + ("--format", "plain"):
        "87ffdb1aee129ee581e5e5bf99c5843fab9881c42b0678f525e83a3b64c7fc8d",
    _VERIFY + ("--format", "json"):
        "2f148421fe34baeb343f33a61d19fc60c276cae02b40e2d8339926cd89027d90",
    _VERIFY + ("--format", "csv"):
        "8ff9d3792018e051d04a80cdef5baccdd5333159c79657347726d6da850813fd",
    # the verify-deep bytes the benchmark checks
    ("verify", "--nmax", "120", "--format", "json"):
        "afd8c133ca2c3bba645bbc723da0ad19c07232ffab9b83e9f3eb8e455f760892",
    ("--help",): "587608d5695b85b71d21875cfd37fb4defaa9a271cff41ffa96c8b904fbb5856",
    ("seq", "--help"): "bbe4feaeed14efc3a856d6c3cd359fb5d1c239f6d4842cb3769dc3ad07206b36",
    ("det", "--help"): "4237afd1d40e4004b9aedeb5d4c26ed4722d54fb00ca5c37a4f8a5db82aeedeb",
    ("tilings", "--help"): "9b92c93a2cabc6024157c20e6eb62145c21c7eb736ace8edb69f118ad2bffa80",
    ("gf", "--help"): "6ac0a8f309585ff04b79dbee1661acef19fbdbe08e22a26132367eed44bd83d7",
    ("verify", "--help"): "0228b40cf742e2202c06b4d619a29b36c111c8b3331976758be3062257bf18f0",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT), ids=" ".join)
def test_golden_stdout_bytes(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert run(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_STDOUT[argv]


def test_seq_requires_valid_family(capsys):
    assert run(["seq", "nonesuch", "--from", "0", "--to", "3"]) == 2
    assert run(["seq", "gen-tribonacci", "--from", "0", "--to", "3"]) == 2
    assert run(["seq", "tribonacci", "--r", "3", "--from", "0", "--to", "3"]) == 2
    assert run(["seq", "tribonacci", "--from", "5", "--to", "2"]) == 2
    capsys.readouterr()


HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "gen-tribonacci", "--r", HUGE, "--from", "0", "--to", "1"],
        ["gf", "--family", "i22", "--r", HUGE, "--terms", "1"],
        ["gf", "--family", "i22", "--r", "3", "--terms", HUGE],
    ],
)
def test_oversized_values_exit_two_with_one_line(argv, capsys):
    # each fails with ValueError or OverflowError before anything is allocated
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--r-set", "3," + HUGE],
        ["verify", "--r-set", "3,%d" % (MAX_R + 1), "--format", "json"],
        ["verify", "--ids", "I-01", "--r-set", str(MAX_R + 1), "--format", "csv"],
        ["seq", "k-step-fibonacci", "--r", str(MAX_R + 1), "--from", "0", "--to", "1"],
        ["det", "--a0", "1", "--kind", "gen-tribonacci", "--r", HUGE, "--start", "0",
         "--stride", "1", "-n", "3"],
        ["det", "--a0", "1", "--kind", "gen-padovan", "--r", str(MAX_R + 1), "--start", "0",
         "--stride", "2", "-n", "3", "--format", "json"],
        ["gf", "--family", "i22", "--r", str(MAX_R + 1), "--terms", "3"],
    ],
)
def test_r_above_max_r_exits_two_before_any_output(argv, capsys):
    # verify refuses before its fixed cases run, so nothing reaches stdout
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "MAX_R = %d" % MAX_R in lines[0]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("r_set", ["-5", "0,2", "3,1"])
def test_verify_r_below_every_family_exits_two_before_any_output(r_set, fmt, capsys):
    # no family takes an order below 2, so such an r is refused, not dropped
    assert run(["verify", "--r-set", r_set, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "smallest order 2" in lines[0]


def test_verify_r_two_runs(capsys):
    assert run(["verify", "--ids", "I-33,I-34", "--r-set", "2", "--nmax", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "checked=12 passed=12 failed=0"


def test_r_at_max_r_runs(capsys):
    assert run(["seq", "gen-tribonacci", "--r", str(MAX_R), "--from", str(MAX_R - 2),
                "--to", str(MAX_R + 1)]) == 0
    assert capsys.readouterr().out == "0 1 1 2\n"
    assert run(["gf", "--family", "i22", "--r", str(MAX_R), "--terms", "3"]) == 0
    assert capsys.readouterr().out == "0 0 0\n"


def test_det_single_method(capsys):
    assert run(["det", "--a0", "1", "--kind", "tribonacci", "--start", "3",
                "--stride", "2", "-n", "4"]) == 0
    assert capsys.readouterr().out == "-13\n"


def test_det_all_methods_exact_bytes(capsys):
    assert run(["det", "--a0", "1", "--kind", "tribonacci", "--start", "3",
                "--stride", "2", "-n", "4", "--method", "all"]) == 0
    assert capsys.readouterr().out == (
        "recurrence -13\n"
        "trudi-partitions -13\n"
        "trudi-compositions -13\n"
        "dense -13\n"
    )


def test_det_json_document(capsys):
    assert run(["det", "--a0", "1", "--kind", "tribonacci", "--start", "3",
                "--stride", "2", "-n", "4", "--method", "all", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == ["1", "4", "13", "44"]
    assert set(doc["values"].values()) == {"-13"}


def test_det_usage_errors(capsys):
    base = ["det", "--kind", "tribonacci", "--start", "0", "-n", "3"]
    assert run(base + ["--a0", "0", "--stride", "1"]) == 2
    assert run(base + ["--a0", "1", "--stride", "3"]) == 2  # stride limited to 1, 2
    assert run(["det", "--a0", "1", "--kind", "gen-tribonacci", "--start", "0",
                "--stride", "1", "-n", "3"]) == 2  # missing --r
    capsys.readouterr()


_DET_DEEP = ["det", "--a0", "1", "--kind", "gen-tribonacci", "--r", "5", "--start", "1",
             "--stride", "2", "-n", "20000"]


def test_det_default_route_makes_no_entry(capsys, monkeypatch):
    def refuse(rule, n):
        raise AssertionError("det's default route made its entries")

    monkeypatch.setattr(cli_module, "make_entries", refuse)
    value = det_gf(EntryRule(SequenceKind("gen-tribonacci", 5), 1, 2, 1)).at(20000)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(value)
    finally:
        sys.set_int_max_str_digits(cap)
    assert len(digits) > cap
    assert run(_DET_DEEP) == 0
    assert capsys.readouterr().out == digits + "\n"
    assert run(_DET_DEEP + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == "method,value\nrecurrence,%s\n" % digits
    # make_entries' refusal of an empty matrix stands without it
    assert run(_DET_DEEP[:-1] + ["0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: entry vector needs n >= 1, got 0\n"


@pytest.mark.parametrize(
    "extra",
    [["--format", "json"], ["--method", "all"], ["--method", "dense", "--format", "csv"]]
    + [["--method", method] for method in ("trudi-partitions", "trudi-compositions")]
    + [["--method", method, "--format", "json"] for method in cli_module._DET_METHODS]
    + [["--method", "all", "--format", fmt] for fmt in ("json", "csv")],
)
def test_det_json_and_other_methods_still_build_entries(extra, capsys, monkeypatch):
    calls = []

    def spy(rule, n):
        calls.append((rule, n))
        return make_entries(rule, n)

    monkeypatch.setattr(cli_module, "make_entries", spy)
    assert run(list(_DET14) + extra) == 0
    assert capsys.readouterr().out
    # once per command, however many methods and formats read the entries
    assert calls == [(EntryRule(SequenceKind("tribonacci"), 3, 2, 1), 14)]


def test_tilings_count_and_enumeration(capsys):
    assert run(["tilings", "--length", "4", "--pieces", "1,2", "--enumerate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "5"
    assert sorted(lines[1:]) == ["1 1 1 1", "1 1 2", "1 2 1", "2 1 1", "2 2"]


def test_tilings_colored_tokens(capsys):
    assert run(["tilings", "--length", "2", "--pieces", "1:2", "--enumerate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4"
    assert sorted(lines[1:]) == ["1:1 1:1", "1:1 1:2", "1:2 1:1", "1:2 1:2"]


def test_tilings_json_and_errors(capsys):
    assert run(["tilings", "--length", "30", "--pieces", "1,2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == "1346269"
    assert run(["tilings", "--length", "19", "--pieces", "1,2", "--enumerate"]) == 2
    assert run(["tilings", "--length", "4", "--pieces", "1,x"]) == 2
    assert run(["tilings", "--length", "4", "--pieces", "1,1"]) == 2
    capsys.readouterr()


def test_tilings_count_cap_refuses_before_any_output(capsys):
    assert run(["tilings", "--length", "18", "--pieces", "1:9,2:9", "--enumerate"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: enumeration capped at 2^17 tilings, got 776092140459190341\n"


def test_tilings_output_spans_several_batches(capsys):
    # 2731 tilings: the streamed output is byte for byte the one written whole
    base = ["tilings", "--length", "12", "--pieces", "2:2,1", "--enumerate"]
    tilings = enumerate_tilings(12, PieceSet(((2, 2), (1, 1))))
    assert len(tilings) > 3 * _SEQ_BATCH
    # the uncolored length 1 prints bare, the two-color length 2 as 2:color
    lines = [" ".join("1" if p == 1 else "2:%d" % c for p, c in t) for t in tilings]
    assert run(base) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in ["2731"] + lines)
    assert run(base + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["index", "tiling"]] + [[str(i), line] for i, line in enumerate(lines)]
    assert run(base + ["--format", "json"]) == 0
    doc = {"length": 12, "pieces": [[2, 2], [1, 1]], "count": "2731",
           "tilings": [[list(p) for p in t] for t in tilings]}
    assert capsys.readouterr().out == json.dumps(doc) + "\n"


def test_gf_plain_and_default_order(capsys):
    assert run(["gf", "--family", "i24", "--terms", "4"]) == 0
    assert capsys.readouterr().out == "1 -3 6 -13\n"
    assert run(["gf", "--family", "i29", "--r", "3", "--terms", "5"]) == 0
    assert capsys.readouterr().out == "0 1 2 8 28\n"


def test_gf_errors(capsys):
    assert run(["gf", "--family", "i22", "--terms", "4"]) == 2  # needs --r
    assert capsys.readouterr().err == "error: family 'i22' requires --r\n"
    # gf_catalog's refusal, with or without --r
    for order in (["--r", "3"], []):
        assert run(["gf", "--family", "nonesuch", "--terms", "4"] + order) == 2
        assert capsys.readouterr() == ("", "error: unknown gf family 'nonesuch'\n")
    assert run(["gf", "--family", "i23", "--r", "4", "--terms", "4"]) == 2
    capsys.readouterr()


def test_verify_plain_lines(capsys):
    assert run(["verify", "--ids", "I-08", "--r-set", "3", "--nmax", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS I-08 ") for line in lines[:7])
    assert lines[-1] == "checked=7 passed=7 failed=0"


def test_verify_json_and_csv_records_agree(capsys):
    args = ["verify", "--ids", "I-19,I-19b", "--r-set", "3,4", "--nmax", "6"]
    assert run(args + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert run(args + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["id", "r", "n", "lhs", "rhs", "pass"]
    assert len(rows) - 1 == len(doc["reports"]) == doc["summary"]["checked"]
    for row, rec in zip(rows[1:], doc["reports"]):
        assert row[0] == rec["id"]
        assert row[1] == ("" if rec["r"] is None else str(rec["r"]))
        assert row[2] == str(rec["n"])
        assert row[3] == rec["lhs"]
        assert row[4] == rec["rhs"]
        assert row[5] == ("true" if rec["pass"] else "false")
    assert doc["summary"]["failed"] == 0


def _forged_registry():
    return [
        IdentityCase(
            id="X-00", description="forged failing case", parameterized=False,
            accepts_r=lambda r: False, n_min=lambda r: 1, n_cap=lambda r: 3,
            sweep=lambda r, lo, hi: [(0, 1)] * (hi - lo + 1),
            evaluate=lambda r, n: (0, 1), rule=None, rhs=None,
        )
    ]


def test_verify_exit_one_on_failures(capsys, monkeypatch):
    monkeypatch.setattr(identities_module, "registry", _forged_registry)
    assert run(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL X-00" in out
    assert "checked=3 passed=0 failed=3" in out
    monkeypatch.setattr(identities_module, "registry", _forged_registry)
    assert run(["verify", "--fail-fast"]) == 1
    assert "checked=1 passed=0 failed=1" in capsys.readouterr().out


def _streamless_verify(fmt, **selection):
    """verify's stdout built whole from check_all, as it was before streaming."""
    reports, summary = check_all(**selection)
    counts = summary._asdict()
    if fmt == "plain":
        lines = [
            "%s %s r=%s n=%d lhs=%d rhs=%d"
            % ("PASS" if rep.passed else "FAIL", rep.id, "-" if rep.r is None else rep.r,
               rep.n, rep.lhs, rep.rhs)
            for rep in reports
        ]
        lines.append("checked=%(checked)d passed=%(passed)d failed=%(failed)d" % counts)
        return "".join(line + "\n" for line in lines)
    if fmt == "json":
        records = [
            {"id": rep.id, "r": rep.r, "n": rep.n, "lhs": str(rep.lhs), "rhs": str(rep.rhs),
             "pass": rep.passed}
            for rep in reports
        ]
        return json.dumps({"reports": records, "summary": counts}) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "r", "n", "lhs", "rhs", "pass"])
    for rep in reports:
        writer.writerow([rep.id, "" if rep.r is None else rep.r, rep.n, str(rep.lhs), str(rep.rhs),
                         "true" if rep.passed else "false"])
    return out.getvalue()


def _fails_mid_sweep(r, lo, hi):
    # fails at n = 5 for r = 5 and at n = 7 for r = 7; passes otherwise
    return [(n, n + (n == r)) for n in range(lo, hi + 1)]


def _failing_registry():
    common = dict(n_min=lambda r: 1, n_cap=lambda r: None, rule=None, rhs=None,
                  evaluate=lambda r, n: (n, n), description="forged")
    return [
        IdentityCase(id="X-00", parameterized=False, accepts_r=lambda r: False,
                     sweep=lambda r, lo, hi: [(n, n) for n in range(lo, hi + 1)], **common),
        IdentityCase(id="X-01", parameterized=True, accepts_r=lambda r: r % 2 == 1,
                     sweep=_fails_mid_sweep, **common),
        IdentityCase(id="X-02", parameterized=True, accepts_r=lambda r: r >= 3,
                     sweep=lambda r, lo, hi: [(1, -1)] * (hi - lo + 1), **common),
    ]


_FIXED_IDS = ",".join(case.id for case in registry() if not case.parameterized)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "argv, selection, forged",
    [
        ([], {}, False),
        (["--ids", _FIXED_IDS, "--nmax", "40"],
         {"ids": _FIXED_IDS.split(","), "n_max": 40}, False),
        (["--ids", "I-34,I-19b,I-22", "--r-set", "9,2,3,4", "--nmax", "30"],
         {"ids": ["I-34", "I-19b", "I-22"], "r_set": (9, 2, 3, 4), "n_max": 30}, False),
        (["--r-set", "3,4,5,6,7", "--nmax", "9"], {"r_set": (3, 4, 5, 6, 7), "n_max": 9}, True),
        (["--r-set", "3,4,5,6,7", "--nmax", "9", "--fail-fast"],
         {"r_set": (3, 4, 5, 6, 7), "n_max": 9, "fail_fast": True}, True),
    ],
    ids=["default", "fixed-ids", "mixed-orders", "forged", "forged-fail-fast"],
)
def test_streamed_verify_equals_the_whole_document(
    argv, selection, forged, fmt, capsys, monkeypatch
):
    if forged:
        monkeypatch.setattr(identities_module, "registry", _failing_registry)
    expected = _streamless_verify(fmt, **selection)
    code = run(["verify"] + argv + ["--format", fmt])
    assert capsys.readouterr().out == expected
    assert code == (1 if forged else 0)


_DET_TRIB = ("det", "--a0", "1", "--kind", "tribonacci", "--start", "0", "--stride", "1", "-n")


@pytest.mark.parametrize(
    "argv, forged",
    [
        (("seq", "tribonacci", "--from", "7", "--to", "7"), False),
        (("seq", "tribonacci", "--from", "0", "--to", str(3 * _SEQ_BATCH + 5)), False),
        (_DET14, False),
        (_DET14 + ("--method", "trudi-partitions"), False),
        (_DET14 + ("--method", "trudi-compositions"), False),
        (_DET14 + ("--method", "dense"), False),
        (_DET14 + ("--method", "all"), False),
        (_DET_TRIB + (str(3 * _SEQ_BATCH + 5),), False),
        (_TILINGS, False),
        (_TILINGS + ("--enumerate",), False),
        (("tilings", "--length", "1", "--pieces", "2,3", "--enumerate"), False),
        (("tilings", "--length", "12", "--pieces", "2:2,1", "--enumerate"), False),
        (("gf", "--family", "i24", "--terms", "4"), False),
        (_GF, False),
        (("gf", "--family", "i29", "--r", "4", "--terms", str(3 * _SEQ_BATCH + 1)), False),
        (_VERIFY, False),
        (("verify", "--nmax", "30", "--fail-fast"), False),
        (("verify", "--r-set", "3,4,5,6,7", "--nmax", "9"), True),
        (("verify", "--r-set", "3,4,5,6,7", "--nmax", "9", "--fail-fast"), True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else ("forged" if v else "registry"),
)
def test_json_output_is_what_json_dumps_writes(argv, forged, capsys, monkeypatch):
    if forged:
        monkeypatch.setattr(identities_module, "registry", _failing_registry)
    assert run(list(argv) + ["--format", "json"]) == (1 if forged else 0)
    out = capsys.readouterr().out
    # split at json.dumps' item separator, so that a failure names the first
    # differing piece quickly rather than diffing one long line
    assert out.split(", ") == (json.dumps(json.loads(out)) + "\n").split(", ")


@pytest.mark.parametrize("ids", ["I-99", "I-01,I-99", "I-36,I-99"])
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_verify_unknown_id_exits_two_before_any_output(ids, fmt, capsys):
    assert run(["verify", "--ids", ids, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown identity ids: I-99\n"


def test_verify_argument_errors(capsys):
    assert run(["verify", "--ids", " , "]) == 2
    assert run(["verify", "--r-set", "x"]) == 2
    assert run(["verify", "--ids", "I-99"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--nmax", "0"],
        ["verify", "--ids", "I-20", "--r-set", "4"],  # I-20 wants odd orders
        ["verify", "--ids", "I-20,I-21", "--r-set", "3", "--nmax", "0", "--format", "json"],
        ["verify", "--ids", "I-36", "--nmax", "0", "--format", "csv"],
    ],
)
def test_verify_selecting_no_check_exits_two(argv, capsys):
    # a sweep that checks nothing must not report success
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_verify_nmax_above_the_ceiling_exits_two(monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("verify swept past the --nmax ceiling")

    monkeypatch.setattr(cli_module, "check_sweeps", no_sweep)
    assert run(["verify", "--nmax", str(NMAX_CEILING + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    too_high = NMAX_CEILING + 1
    assert lines == ["error: --nmax %d is above the ceiling of %d" % (too_high, NMAX_CEILING)]
    assert run(["verify", "--nmax", str(10**20)]) == 2
    capsys.readouterr()


def test_verify_nmax_at_the_ceiling_runs(capsys):
    assert run(["verify", "--ids", "I-08", "--nmax", str(NMAX_CEILING)]) == 0
    # I-08 holds from n = 4
    checks = NMAX_CEILING - 3
    assert capsys.readouterr().out.endswith("checked=%d passed=%d failed=0\n" % (checks, checks))


def test_top_level_usage(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["seq", "tribonacci", "--from", "0", "--to", "3000"],
        ["verify", "--nmax", "60"],
    ],
    ids=" ".join,
)
def test_closed_pipe_exits_quietly(argv):
    # both outputs are far larger than a pipe buffer, so writing must fail
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tridet"] + argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err
    assert proc.returncode == 141  # 128 + SIGPIPE, as the shell reports for cat

"""The benchmark's workloads: inputs drawn from a seed, operations and checks.

Every workload reaches tridet only through its public entry points, looked
up on the module at call time so that the tracer's wrappers are seen.  A
workload's pass is a fixed list of operations built once per run from the
seed; the harness cycles through it.  Each check runs outside the timed
region and returns OK, KNOWN (the recorded failure of a known defect) or
WRONG.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

OK, KNOWN, WRONG = "ok", "known-defect", "wrong"

CHILD_TIMEOUT_S = 60


class CliResult(NamedTuple):
    rc: int
    out: bytes
    err: bytes


@dataclass
class Op:
    """One closed-loop operation: run(tracer) is timed, check(raw) is not."""

    label: str
    run: Callable[[object], object]
    check: Callable[[object], str]


@dataclass
class Workload:
    name: str
    ops: List[Op]
    warmup: Op
    # whose peak resident memory is the work's: "self" or the largest child
    rss_of: str = "self"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def int_digest(value: int) -> str:
    """Digest of an integer through hex(), which has no size cap."""
    return sha256(hex(value).encode())


def fresh_import():
    """Import tridet from the checkout's src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "tridet" or m.startswith("tridet.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tridet
    import tridet.cli

    if not os.path.abspath(tridet.__file__).startswith(SRC + os.sep):
        raise ImportError("tridet was imported from %s, not from %s" % (tridet.__file__, SRC))
    return tridet


def cli_in_process(T, argv: List[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = T.cli.run(argv)
    return CliResult(rc, out.getvalue().encode(), err.getvalue().encode())


# verify-deep ---------------------------------------------------------------

VERIFY_ARGV = ["verify", "--nmax", "120", "--format", "json"]
# stdout of VERIFY_ARGV at the seed commit: 12886 checks, 1272679 bytes
VERIFY_SHA256 = "afd8c133ca2c3bba645bbc723da0ad19c07232ffab9b83e9f3eb8e455f760892"
VERIFY_SUMMARY = {"checked": 12886, "passed": 12886, "failed": 0}


def verify_summary(out: bytes) -> Optional[dict]:
    """The summary object at the end of a verify JSON document, or None."""
    tail = out[-200:].decode("utf-8", "replace")
    start = tail.rfind('"summary": ')
    if start < 0:
        return None
    try:
        return json.loads(tail[start + len('"summary": ') :].rstrip()[:-1])
    except ValueError:
        return None


def check_verify(result: CliResult) -> str:
    ok = (
        result.rc == 0
        and verify_summary(result.out) == VERIFY_SUMMARY
        and sha256(result.out) == VERIFY_SHA256
    )
    return OK if ok else WRONG


def verify_deep(T, seed: int) -> Workload:
    op = Op("verify --nmax 120 --format json", lambda tracer: cli_in_process(T, VERIFY_ARGV), check_verify)
    return Workload("verify-deep", [op], op)


# det-deep ------------------------------------------------------------------

DET_N_LOW, DET_N_HIGH = 1000, 1100
# (identity id, r, sizes per pass) whose left-side rule and right side come from the
# registry.  The cheapest rule runs once per pass, so a pass has an odd number of
# operations and op_p50_s is the time of one operation, not the mean of two.
DET_CASES = (("I-03", None, 2), ("I-22", 5, 2), ("I-29", 6, 2), ("I-32", 7, 1), ("I-33", 8, 2))
# not in the registry: tribonacci from index 2, stride 3, a0 = 2
SCALED = ("tribonacci", 2, 3, 2)


def det_sizes(rng: random.Random) -> tuple:
    """Two sizes in [1000, 1100) that sum to 2099, so a pass's work hardly depends on the seed."""
    low = rng.randrange(DET_N_LOW, DET_N_HIGH)
    return low, DET_N_LOW + DET_N_HIGH - 1 - low


def _scaled_prefixes(T, rule, n: int) -> List[int]:
    """det(a0; a_k) for every prefix, by det(a0; a_k) = det(1; a0^(k-1) a_k)."""
    entries = T.make_entries(rule, n).entries
    scaled = tuple(rule.a0 ** k * a for k, a in enumerate(entries))
    return T.det_prefixes(T.HessenbergSpec(1, scaled))


def det_deep(T, seed: int) -> Workload:
    rng = random.Random("det-deep/%d" % seed)
    cases = {c.id: c for c in T.registry()}
    rules = [(cid if r is None else "%s r=%d" % (cid, r), cases[cid].rule(r), cases[cid].rhs, r, sizes)
             for cid, r, sizes in DET_CASES]
    family, start, stride, a0 = SCALED
    scaled_rule = T.EntryRule(T.SequenceKind(family), start, stride, a0)
    rules.append(("%s start=%d stride=%d a0=%d" % SCALED, scaled_rule, None, None, 2))
    expected: Dict[tuple, int] = {}

    def expect(label, rule, rhs, r, n) -> int:
        if (label, n) not in expected:
            if rhs is not None:
                expected[(label, n)] = rhs(r, n)
            else:
                # one prefix pass serves every size the run can draw
                for m, value in enumerate(_scaled_prefixes(T, rule, DET_N_HIGH - 1)):
                    expected[(label, m)] = value
        return expected[(label, n)]

    def make(label, rule, rhs, r, n) -> Op:
        def run(tracer):
            return T.determinant.det_recurrence(T.determinant.make_entries(rule, n))

        def check(value: int) -> str:
            ok = int_digest(value) == int_digest(expect(label, rule, rhs, r, n))
            return OK if ok else WRONG

        return Op("%s n=%d" % (label, n), run, check)

    ops = [make(label, rule, rhs, r, n)
           for label, rule, rhs, r, sizes in rules for n in det_sizes(rng)[:sizes]]
    # the cheapest rule at a fixed n, so set-up does not depend on the seed
    label, rule, rhs, r, _ = rules[3]
    warmup = make(label, rule, rhs, r, DET_N_LOW)
    return Workload("det-deep", ops, warmup)


# oracle-crosscheck ---------------------------------------------------------

# The amount of work in a pass is fixed: the sizes below and |a0| do not depend
# on the seed, which draws the entries, the signs, the series lengths and the order.
FOUR_ROUTE_SIZES = range(12, 19)
THREE_ROUTE_SIZES = range(20, 41, 4)
# family, r, strip length, offset: count_tilings(length) == seq_term(kind, length + offset)
TILING_CASES = (
    ("gen-tribonacci", 4, 18, 3),
    ("skip-tribonacci", 5, 17, 4),
    ("k-step-fibonacci", 6, 16, 5),
    ("k-step-fibonacci", 8, 18, 7),
    ("gen-padovan", 3, 18, 3),
    ("q-sequence", 6, 15, 6),
    ("square-rmino", 2, 14, 0),
)
# 7 + 12 + 7 + 5 operations: an odd count, so op_p50_s is the time of one operation
SERIES_OPS = 5
SERIES_ROWS = 28


def _all_equal(values) -> str:
    return OK if len(set(values)) == 1 else WRONG


def _routes(T, a0: int, entries: tuple, names: tuple) -> Op:
    def run(tracer):
        spec = T.determinant.HessenbergSpec(a0, entries)
        return tuple(getattr(T.determinant, name)(spec) for name in names)

    return Op("%d routes a0=%d entries=%s" % (len(names), a0, entries), run, _all_equal)


def _tilings(T, family: str, r: int, length: int, offset: int) -> Op:
    def run(tracer):
        kind = T.sequences.SequenceKind(family, r)
        pieces = T.tilings.pieces_for(kind)
        listed = T.tilings.enumerate_tilings(length, pieces)
        return (len(listed), len(set(listed)), T.tilings.count_tilings(length, pieces),
                T.sequences.seq_term(kind, length + offset))

    return Op("tilings %s r=%d length=%d" % (family, r, length), run, _all_equal)


def _series_rows(T, n: int) -> Op:
    """Series coefficients against determinant sequences, one row per (family, r)."""

    def run(tracer):
        S, D = T.sequences, T.determinant
        rows = []
        for r in range(3, 9):
            gt = S.SequenceKind("gen-tribonacci", r)
            rows.append(("i22", r, D.EntryRule(gt, 1, 2, 1), True))
            if r % 2 == 1:
                rows.append(("i23", r, D.EntryRule(gt, r, 2, 1), True))
            rows.append(("i28", r, D.EntryRule(gt, 0, 2, 1), False))
            rows.append(("i29", r, D.EntryRule(gt, 0, 2, -1), False))
            rows.append(("i30", r, D.EntryRule(gt, r + 2, 1, 1), False))
        rows.append(("i24", 3, D.EntryRule(S.SequenceKind("tribonacci"), 3, 2, 1), False))
        mismatches = 0
        for family, r, rule, alternating in rows:
            coeffs = T.series.expand_rational(T.series.gf_catalog(family, r), n)
            dets = D.det_prefixes(D.make_entries(rule, n))
            for m in range(1, n + 1):
                got = -coeffs[m - 1] if alternating and m % 2 == 0 else coeffs[m - 1]
                mismatches += got != dets[m]
        return len(rows), mismatches

    return Op("series rows n=%d" % n, run, lambda res: OK if res == (SERIES_ROWS, 0) else WRONG)


def oracle_crosscheck(T, seed: int) -> Workload:
    rng = random.Random("oracle-crosscheck/%d" % seed)

    def entries(n: int) -> tuple:
        return tuple(rng.randint(-9, 9) for _ in range(n))

    four = ("det_recurrence", "det_trudi_partitions", "det_trudi_compositions", "det_dense")
    three = ("det_recurrence", "det_trudi_partitions", "det_dense")
    ops = [_routes(T, rng.choice((1, -1)), entries(n), four) for n in FOUR_ROUTE_SIZES]
    ops += [_routes(T, size * rng.choice((1, -1)), entries(n), three)
            for n in THREE_ROUTE_SIZES for size in (2, 3)]
    ops += [_tilings(T, *case) for case in TILING_CASES]
    ops += [_series_rows(T, rng.randint(24, 48)) for _ in range(SERIES_OPS)]
    rng.shuffle(ops)
    return Workload("oracle-crosscheck", ops, _series_rows(T, 24))


# cli-cold ------------------------------------------------------------------

DEFECT_FROM, DEFECT_TO = 16400, 16410
DEFECT_ARGV = ["seq", "tribonacci", "--from", str(DEFECT_FROM), "--to", str(DEFECT_TO)]
DEFECT_STDERR = b"Exceeds the limit (4300 digits) for integer string conversion"
# argv -> (exit code, sha256 of stdout) at the seed commit
CLI_EXPECTED = {
    ("seq", "tribonacci", "--from", "0", "--to", "2000"):
        (0, "9e603d834c5e9eb6940d74b77a018aa79585c7779cc018beae5ca7c72faebd2d"),
    ("seq", "gen-tribonacci", "--r", "5", "--from", "0", "--to", "2000", "--format", "json"):
        (0, "1d3fc9185898c398cacf1beb3a81b2d09dc0867227335bd38f2a6b0855ad6353"),
    ("seq", "k-step-fibonacci", "--r", "4", "--from", "0", "--to", "2000", "--format", "csv"):
        (0, "d2df52558bda4c70bbd47c121efd9953dd881505c439d2ac370439b4c8948c9f"),
    ("det", "--a0", "1", "--kind", "tribonacci", "--start", "3", "--stride", "2", "-n", "14",
     "--method", "all"):
        (0, "5496d1b5cc35c0d4f27e1cb57cd3cc1cb84cfb211579d9ab721eb192fafb40d4"),
    ("tilings", "--length", "14", "--pieces", "1,2,3", "--enumerate", "--format", "csv"):
        (0, "af9b2b42cb588917287e58f8a5d6be8b517fe4c6bbfcc202403a3d1f396c78ff"),
    ("gf", "--family", "i29", "--r", "4", "--terms", "300", "--format", "json"):
        (0, "d794b290bf758da02863d8f134e9e962c8a45dc4ffb9e21080bdef95805c8239"),
    ("verify",):
        (0, "aae83a46eb9dbcf55832facdc910c8e8bab2bc45a552ad185c62291f6fc26e31"),
    ("verify", "--format", "json"):
        (0, "095275bde3399fc5bfe58901f7eda6a1472bf8ccb9bb912e64f1d7e8f8eb75c0"),
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: List[str], tracer) -> CliResult:
    """One fresh `python -m tridet` process, or the traced bootstrap when tracing."""
    if tracer is None:
        cmd = [sys.executable, "-m", "tridet"] + argv
    else:
        os.makedirs(TRACE_DIR, exist_ok=True)
        out_path = os.path.join(TRACE_DIR, "child-%d.json" % os.getpid())
        cmd = [sys.executable, os.path.join(HERE, "child.py"), out_path] + argv
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if tracer is not None:
        with open(out_path) as fh:
            doc = json.load(fh)
        os.remove(out_path)
        tracer.absorb(doc)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _cli_op(argv: List[str], rc: int, digest: str, known_defect: Optional[bytes] = None) -> Op:
    def check(result: CliResult) -> str:
        if result.rc == rc and sha256(result.out) == digest:
            return OK
        if known_defect is not None and result.rc == 2 and known_defect in result.err:
            return KNOWN
        return WRONG

    return Op(" ".join(argv), lambda tracer: run_child(argv, tracer), check)


def expected_defect_output() -> bytes:
    """What the known-defect call should print: the terms by a rolling tribonacci
    recurrence in this process, formatted with the int->str cap lifted."""
    a, b, c = 0, 0, 1
    terms = []
    for n in range(DEFECT_TO + 1):
        if n >= DEFECT_FROM:
            terms.append(a)
        a, b, c = b, c, a + b + c
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return (" ".join(str(t) for t in terms) + "\n").encode()
    finally:
        sys.set_int_max_str_digits(cap)


def cli_cold(T, seed: int) -> Workload:
    rng = random.Random("cli-cold/%d" % seed)
    ops = [_cli_op(list(argv), *expected) for argv, expected in CLI_EXPECTED.items()]
    ops.append(_cli_op(DEFECT_ARGV, 0, sha256(expected_defect_output()), DEFECT_STDERR))
    warmup = ops[0]
    rng.shuffle(ops)
    return Workload("cli-cold", ops, warmup, rss_of="children")


WORKLOADS = {
    "verify-deep": verify_deep,
    "det-deep": det_deep,
    "oracle-crosscheck": oracle_crosscheck,
    "cli-cold": cli_cold,
}

"""Command line front end.

Subcommands: seq (print sequence terms), det (one determinant by one or
all methods), tilings (count or enumerate strip tilings), gf (series
coefficients from the catalog), verify (run the identity registry).  Each
writes its result through _emit a batch at a time, and every JSON document
through _json_doc, as json.dumps would write it whole.

Exit codes: 0 success, 1 verification found failing identities, 2 bad
usage or invalid values, including values too large to allocate, a verify
--nmax above NMAX_CEILING and a verify selection with no in-domain check.
Run as a program (main), the tool exits 141, as a process ended by SIGPIPE
does, when the reader of its stdout goes away before the output ends.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .determinant import (
    EntryRule,
    det_dense,
    det_gf,
    det_trudi_compositions,
    det_trudi_partitions,
    make_entries,
)
from .identities import DEFAULT_N_MAX, DEFAULT_R_SET, check_sweeps
from .sequences import SequenceKind, seq_range
from .series import GF_FAMILIES, expand_rational, gf_catalog
from .tilings import PieceSet, count_tilings, enumerate_tilings

# verify --nmax 2000 runs in about 2.5 s and prints 118 MB with --format
# json (Python 3.11, 2-vCPU host).  Streamed one sweep at a time, it peaks
# near 30 MB RSS in every format: the peak follows the largest single sweep
# (17, 20, 29 MB at n_max 500, 1000, 2000) while each doubling of n_max makes
# the output about 4x as large, so the ceiling bounds run time and output size
NMAX_CEILING = 2000

# the oracle routes, which read a spec's entries; det's recurrence value is
# det_gf(rule).at(n), which reads none
_DET_METHODS = {
    "trudi-partitions": det_trudi_partitions,
    "trudi-compositions": det_trudi_compositions,
    "dense": det_dense,
}


def _emit(
    fmt: str,
    plain: Callable[[], Iterable[str]],
    doc: Callable[[], Iterable[str]],
    columns: Sequence[str],
    rows: Callable[[], Iterable[Iterable[Sequence]]],
) -> None:
    """Write one result to stdout; no other code in this module does.

    Every format comes in batches, each written at once and then dropped:
    plain() gives pieces of plain text, doc() pieces of one JSON document
    from _json_doc and rows() batches of CSV rows under the header columns.
    Only the one for fmt is called, so the other formats are never built.
    """
    out = sys.stdout
    if fmt == "plain":
        out.writelines(plain())
    elif fmt == "json":
        out.writelines(doc())
        out.write("\n")
    else:
        for batch in chain([[columns]], rows()):
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(batch)
            out.write(text.getvalue())


def _json_doc(
    head: dict, key: str, batches: Iterable[Iterable[str]], tail: Optional[dict] = None
) -> Iterator[str]:
    """The text of json.dumps({**head, key: [items], **tail}), one batch at a time.

    Each batch holds one or more JSON texts, each of one item or of a run of
    items as json.dumps(run)[1:-1] writes them.  tail is encoded after the
    last batch, so it may hold values that reading the batches fills in.
    """
    opening = json.dumps({**head, key: []})[:-2]
    yield opening
    sep = ""
    for batch in batches:
        yield sep + ", ".join(batch)
        sep = ", "
    yield json.dumps({**head, key: [], **(tail or {})})[len(opening) :]


def _lines(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


# terms, entries, coefficients and tilings are written this many at a time,
# so only one batch's text is held
_SEQ_BATCH = 256


def _batches(items: Sequence) -> Iterator[Tuple[int, Sequence]]:
    """(i, items[i : i + _SEQ_BATCH]) for i = 0, _SEQ_BATCH, 2 * _SEQ_BATCH, ..."""
    return ((i, items[i : i + _SEQ_BATCH]) for i in range(0, len(items), _SEQ_BATCH))


def _int_strings(values: Sequence[int]) -> Iterator[Iterator[str]]:
    """values as batches of JSON strings of their digits, as json holds big integers."""
    return (('"%d"' % v for v in batch) for _, batch in _batches(values))


def _emit_terms(
    emit: Callable, values: Sequence[int], first: int, head: dict, key: str, columns: Sequence[str]
) -> None:
    """Integers indexed from first: one line, a JSON list under key, CSV rows."""

    def plain():
        for i, batch in _batches(values):
            yield (" " if i else "") + " ".join(map(str, batch))
        yield "\n"

    emit(
        plain,
        lambda: _json_doc(head, key, _int_strings(values)),
        columns,
        lambda: (enumerate(batch, first + i) for i, batch in _batches(values)),
    )


def _cmd_seq(args: argparse.Namespace, emit: Callable[..., None]) -> int:
    terms = seq_range(SequenceKind(args.kind, args.r), args.start, args.stop)
    head = {"kind": args.kind, "r": args.r, "from": args.start, "to": args.stop}
    _emit_terms(emit, terms, args.start, head, "terms", ["n", "value"])
    return 0


def _cmd_det(args: argparse.Namespace, emit: Callable[..., None]) -> int:
    rule = EntryRule(SequenceKind(args.kind, args.r), args.start, args.stride, args.a0)
    if args.n < 1:  # make_entries' refusal, also when no entry is made
        raise ValueError("entry vector needs n >= 1, got %d" % args.n)
    names = ("recurrence", *_DET_METHODS) if args.method == "all" else (args.method,)
    # the entries are made once, and only for an oracle method or the json document
    spec = make_entries(rule, args.n) if args.format == "json" or names != ("recurrence",) else None
    values = [
        (name, str(det_gf(rule).at(args.n) if name == "recurrence" else _DET_METHODS[name](spec)))
        for name in names
    ]
    head = {key: getattr(args, key) for key in ("kind", "r", "a0", "start", "stride", "n")}
    lines = [values[0][1]] if len(values) == 1 else ["%s %s" % pair for pair in values]
    emit(
        lambda: [_lines(lines)],
        lambda: _json_doc(head, "entries", _int_strings(spec.entries), {"values": dict(values)}),
        ["method", "value"],
        lambda: [values],
    )
    return 0


def _parse_pieces(text: str) -> PieceSet:
    items = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty piece token in %r" % text)
        length, colon, colors = token.partition(":")
        items.append((int(length), int(colors) if colon else 1))
    return PieceSet(tuple(items))


def _cmd_tilings(args: argparse.Namespace, emit: Callable[..., None]) -> int:
    pieces = _parse_pieces(args.pieces)
    count = str(count_tilings(args.length, pieces))
    head = {"length": args.length, "pieces": pieces.pieces, "count": count}
    if not args.enumerate:
        emit(lambda: [count + "\n"], lambda: [json.dumps(head)], ["count"], lambda: [[[count]]])
        return 0
    tilings = enumerate_tilings(args.length, pieces)
    colors = dict(pieces.pieces)

    def line(tiling):
        return " ".join(
            str(plen) if colors[plen] == 1 else "%d:%d" % (plen, color) for plen, color in tiling
        )

    def plain():
        yield count + "\n"
        for _, batch in _batches(tilings):
            yield _lines(map(line, batch))

    emit(
        plain,
        lambda: _json_doc(head, "tilings", ([json.dumps(b)[1:-1]] for _, b in _batches(tilings))),
        ["index", "tiling"],
        lambda: (enumerate(map(line, batch), i) for i, batch in _batches(tilings)),
    )
    return 0


def _cmd_gf(args: argparse.Namespace, emit: Callable[..., None]) -> int:
    # gf_catalog refuses an unknown family first, with or without --r
    r = 3 if args.r is None else args.r
    gf = gf_catalog(args.family, r)
    if args.r is None and args.family != "i24":  # r = 3 is i24's one order
        raise ValueError("family %r requires --r" % args.family)
    head = {"family": args.family, "r": r, "num": list(gf.num), "den": list(gf.den)}
    coeffs = expand_rational(gf, args.terms)
    _emit_terms(emit, coeffs, 1, head, "coefficients", ["n", "coefficient"])
    return 0


def _cmd_verify(args: argparse.Namespace, emit: Callable[..., None]) -> int:
    if args.nmax > NMAX_CEILING:
        raise ValueError("--nmax %d is above the ceiling of %d" % (args.nmax, NMAX_CEILING))
    ids = None
    if args.ids is not None:
        ids = [tok.strip() for tok in args.ids.split(",") if tok.strip()]
        if not ids:
            raise ValueError("--ids was given but names no identities")
    if args.r_set is not None:
        r_set = tuple(int(tok) for tok in args.r_set.split(",") if tok.strip())
        if not r_set:
            raise ValueError("--r-set was given but names no values")
    else:
        r_set = DEFAULT_R_SET
    sweeps = check_sweeps(r_set=r_set, n_max=args.nmax, ids=ids, fail_fast=args.fail_fast)
    # unknown ids and a selection that checks nothing are refused before any output
    first = next(sweeps, None)
    if first is None:
        raise ValueError("no in-domain check for these --ids, --r-set and --nmax")
    counts = {"checked": 0, "passed": 0, "failed": 0}

    def counted():
        for reports in chain([first], sweeps):
            passed = sum(rep.passed for rep in reports)
            counts["checked"] += len(reports)
            counts["passed"] += passed
            counts["failed"] += len(reports) - passed
            yield reports

    def plain():
        for reports in counted():
            yield _lines(
                "%s %s r=%s n=%d lhs=%d rhs=%d"
                % ("PASS" if rep.passed else "FAIL", rep.id, "-" if rep.r is None else rep.r,
                   rep.n, rep.lhs, rep.rhs)
                for rep in reports
            )
        yield "checked=%(checked)d passed=%(passed)d failed=%(failed)d\n" % counts

    def records(reports):
        # each record as json.dumps writes it, without a dict per report (2.5x as
        # slow); the reports of one sweep share their id and r
        head = '{"id": %s, "r": %s, "n": ' % (json.dumps(reports[0].id), json.dumps(reports[0].r))
        return (
            '%s%d, "lhs": "%d", "rhs": "%d", "pass": %s}'
            % (head, rep.n, rep.lhs, rep.rhs, "true" if rep.passed else "false")
            for rep in reports
        )

    def doc():
        # the summary is encoded once the sweeps have filled in counts
        return _json_doc({}, "reports", map(records, counted()), {"summary": counts})

    def rows():
        for reports in counted():
            r = "" if reports[0].r is None else reports[0].r
            yield (
                [rep.id, r, rep.n, str(rep.lhs), str(rep.rhs), "true" if rep.passed else "false"]
                for rep in reports
            )

    emit(plain, doc, ["id", "r", "n", "lhs", "rhs", "pass"], rows)
    return 1 if counts["failed"] else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridet",
        description="Exact Toeplitz-Hessenberg determinants and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print terms of a sequence family")
    p_seq.add_argument("kind", help="family name, e.g. tribonacci or gen-tribonacci")
    p_seq.add_argument("--r", type=int, default=None, help="order for parametric families")
    p_seq.add_argument("--from", dest="start", type=int, required=True, metavar="A")
    p_seq.add_argument("--to", dest="stop", type=int, required=True, metavar="B")
    p_seq.set_defaults(handler=_cmd_seq)

    p_det = sub.add_parser("det", help="one Toeplitz-Hessenberg determinant")
    p_det.add_argument("--a0", type=int, required=True, help="superdiagonal constant")
    p_det.add_argument("--kind", required=True, help="entry sequence family")
    p_det.add_argument("--r", type=int, default=None)
    p_det.add_argument("--start", type=int, required=True, help="index of the first entry")
    p_det.add_argument("--stride", type=int, choices=(1, 2), required=True)
    p_det.add_argument("-n", dest="n", type=int, required=True, help="matrix size")
    p_det.add_argument(
        "--method", choices=("recurrence", *_DET_METHODS, "all"), default="recurrence"
    )
    p_det.set_defaults(handler=_cmd_det)

    p_til = sub.add_parser("tilings", help="count or list strip tilings")
    p_til.add_argument("--length", type=int, required=True)
    p_til.add_argument(
        "--pieces", required=True, help="comma list of piece lengths, each optionally :colorcount"
    )
    p_til.add_argument("--enumerate", action="store_true")
    p_til.set_defaults(handler=_cmd_tilings)

    p_gf = sub.add_parser("gf", help="series coefficients from the catalog")
    p_gf.add_argument("--family", required=True, help="one of %s" % (", ".join(GF_FAMILIES)))
    p_gf.add_argument("--r", type=int, default=None)
    p_gf.add_argument("--terms", type=int, required=True)
    p_gf.set_defaults(handler=_cmd_gf)

    p_ver = sub.add_parser("verify", help="run the identity registry")
    p_ver.add_argument("--ids", default=None, help="comma list of identity ids")
    p_ver.add_argument("--r-set", dest="r_set", default=None, help="comma list of r values")
    p_ver.add_argument("--nmax", type=int, default=DEFAULT_N_MAX)
    p_ver.add_argument("--fail-fast", action="store_true")
    p_ver.set_defaults(handler=_cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact results may have any number of digits: lift the int->str cap of
    # CPython >= 3.10.7 for the handler only, so parsing keeps it and
    # in-process callers get their setting back
    capped = hasattr(sys, "set_int_max_str_digits")
    if capped:
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args, partial(_emit, args.format))
    except (ValueError, OverflowError, MemoryError) as exc:
        # oversized values fail here too, before or while allocating
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2
    finally:
        if capped:
            sys.set_int_max_str_digits(cap)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so a closed pipe shows here and not at exit
    except BrokenPipeError:
        # the reader is gone: send the rest to devnull, so the flush at exit
        # cannot fail again, and exit as a process ended by SIGPIPE does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)

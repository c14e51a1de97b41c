"""Command line front end.

Subcommands: seq (print sequence terms), det (one determinant by one or
all methods), tilings (count or enumerate strip tilings), gf (series
coefficients from the catalog), verify (run the identity registry).

Exit codes: 0 success, 1 verification found failing identities, 2 bad
usage or invalid values, including values too large to allocate and a
verify selection with no in-domain check.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Optional, Sequence

from .determinant import (
    EntryRule,
    det_dense,
    det_recurrence,
    det_trudi_compositions,
    det_trudi_partitions,
    make_entries,
)
from .identities import DEFAULT_N_MAX, DEFAULT_R_SET, check_all
from .sequences import SequenceKind, seq_range
from .series import GF_FAMILIES, expand_rational, gf_catalog
from .tilings import PieceSet, count_tilings, enumerate_tilings

_DET_METHODS = {
    "recurrence": det_recurrence,
    "trudi-partitions": det_trudi_partitions,
    "trudi-compositions": det_trudi_compositions,
    "dense": det_dense,
}
_DET_ORDER = ("recurrence", "trudi-partitions", "trudi-compositions", "dense")
_FORMATS = ("plain", "json", "csv")


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _cmd_seq(args: argparse.Namespace) -> int:
    kind = SequenceKind(args.kind, args.r)
    terms = seq_range(kind, args.start, args.stop)
    if args.format == "plain":
        print(" ".join(str(t) for t in terms))
    elif args.format == "json":
        doc = {
            "kind": args.kind,
            "r": args.r,
            "from": args.start,
            "to": args.stop,
            "terms": [str(t) for t in terms],
        }
        print(json.dumps(doc))
    else:
        writer = _csv_writer()
        writer.writerow(["n", "value"])
        for i, t in enumerate(terms, start=args.start):
            writer.writerow([i, str(t)])
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    kind = SequenceKind(args.kind, args.r)
    rule = EntryRule(kind, args.start, args.stride, args.a0)
    spec = make_entries(rule, args.n)
    names = _DET_ORDER if args.method == "all" else (args.method,)
    values = {name: _DET_METHODS[name](spec) for name in names}
    if args.format == "plain":
        if len(names) == 1:
            print(values[names[0]])
        else:
            for name in names:
                print("%s %s" % (name, values[name]))
    elif args.format == "json":
        doc = {
            "kind": args.kind,
            "r": args.r,
            "a0": args.a0,
            "start": args.start,
            "stride": args.stride,
            "n": args.n,
            "entries": [str(e) for e in spec.entries],
            "values": {name: str(values[name]) for name in names},
        }
        print(json.dumps(doc))
    else:
        writer = _csv_writer()
        writer.writerow(["method", "value"])
        for name in names:
            writer.writerow([name, str(values[name])])
    return 0


def _parse_pieces(text: str) -> PieceSet:
    items = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty piece token in %r" % text)
        if ":" in token:
            length_text, colors_text = token.split(":", 1)
            items.append((int(length_text), int(colors_text)))
        else:
            items.append((int(token), 1))
    return PieceSet(tuple(items))


def _cmd_tilings(args: argparse.Namespace) -> int:
    pieces = _parse_pieces(args.pieces)
    count = count_tilings(args.length, pieces)
    tilings = enumerate_tilings(args.length, pieces) if args.enumerate else None
    colors = dict(pieces.pieces)

    def token(piece):
        plen, color = piece
        return str(plen) if colors[plen] == 1 else "%d:%d" % (plen, color)

    if args.format == "plain":
        print(count)
        if tilings is not None:
            for tiling in tilings:
                print(" ".join(token(p) for p in tiling))
    elif args.format == "json":
        doc = {
            "length": args.length,
            "pieces": [list(p) for p in pieces.pieces],
            "count": str(count),
        }
        if tilings is not None:
            doc["tilings"] = [[list(p) for p in tiling] for tiling in tilings]
        print(json.dumps(doc))
    else:
        writer = _csv_writer()
        if tilings is None:
            writer.writerow(["count"])
            writer.writerow([str(count)])
        else:
            writer.writerow(["index", "tiling"])
            for i, tiling in enumerate(tilings):
                writer.writerow([i, " ".join(token(p) for p in tiling)])
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    if args.family not in GF_FAMILIES:
        raise ValueError("unknown series family %r" % args.family)
    r = args.r
    if r is None:
        if args.family == "i24":
            r = 3
        else:
            raise ValueError("family %r requires --r" % args.family)
    gf = gf_catalog(args.family, r)
    coeffs = expand_rational(gf, args.terms)
    if args.format == "plain":
        print(" ".join(str(c) for c in coeffs))
    elif args.format == "json":
        doc = {
            "family": args.family,
            "r": r,
            "num": list(gf.num.coeffs),
            "den": list(gf.den.coeffs),
            "coefficients": [str(c) for c in coeffs],
        }
        print(json.dumps(doc))
    else:
        writer = _csv_writer()
        writer.writerow(["n", "coefficient"])
        for n, c in enumerate(coeffs, start=1):
            writer.writerow([n, str(c)])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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
    reports, summary = check_all(
        r_set=r_set, n_max=args.nmax, ids=ids, fail_fast=args.fail_fast
    )
    if not reports:
        raise ValueError("no in-domain check for these --ids, --r-set and --nmax")
    records = [
        {
            "id": rep.id,
            "r": rep.r,
            "n": rep.n,
            "lhs": str(rep.lhs),
            "rhs": str(rep.rhs),
            "pass": rep.passed,
        }
        for rep in reports
    ]
    if args.format == "plain":
        for rep in reports:
            print(
                "%s %s r=%s n=%d lhs=%d rhs=%d"
                % (
                    "PASS" if rep.passed else "FAIL",
                    rep.id,
                    "-" if rep.r is None else rep.r,
                    rep.n,
                    rep.lhs,
                    rep.rhs,
                )
            )
        print(
            "checked=%d passed=%d failed=%d"
            % (summary.checked, summary.passed, summary.failed)
        )
    elif args.format == "json":
        doc = {
            "reports": records,
            "summary": {
                "checked": summary.checked,
                "passed": summary.passed,
                "failed": summary.failed,
            },
        }
        print(json.dumps(doc))
    else:
        writer = _csv_writer()
        writer.writerow(["id", "r", "n", "lhs", "rhs", "pass"])
        for rec in records:
            writer.writerow(
                [
                    rec["id"],
                    "" if rec["r"] is None else rec["r"],
                    rec["n"],
                    rec["lhs"],
                    rec["rhs"],
                    "true" if rec["pass"] else "false",
                ]
            )
    return 1 if summary.failed else 0


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
    p_seq.add_argument("--format", choices=_FORMATS, default="plain")
    p_seq.set_defaults(handler=_cmd_seq)

    p_det = sub.add_parser("det", help="one Toeplitz-Hessenberg determinant")
    p_det.add_argument("--a0", type=int, required=True, help="superdiagonal constant")
    p_det.add_argument("--kind", required=True, help="entry sequence family")
    p_det.add_argument("--r", type=int, default=None)
    p_det.add_argument("--start", type=int, required=True, help="index of the first entry")
    p_det.add_argument("--stride", type=int, choices=(1, 2), required=True)
    p_det.add_argument("-n", dest="n", type=int, required=True, help="matrix size")
    p_det.add_argument("--method", choices=_DET_ORDER + ("all",), default="recurrence")
    p_det.add_argument("--format", choices=_FORMATS, default="plain")
    p_det.set_defaults(handler=_cmd_det)

    p_til = sub.add_parser("tilings", help="count or list strip tilings")
    p_til.add_argument("--length", type=int, required=True)
    p_til.add_argument(
        "--pieces",
        required=True,
        help="comma list of piece lengths, each optionally :colorcount",
    )
    p_til.add_argument("--enumerate", action="store_true")
    p_til.add_argument("--format", choices=_FORMATS, default="plain")
    p_til.set_defaults(handler=_cmd_tilings)

    p_gf = sub.add_parser("gf", help="series coefficients from the catalog")
    p_gf.add_argument("--family", required=True, help="one of %s" % (", ".join(GF_FAMILIES)))
    p_gf.add_argument("--r", type=int, default=None)
    p_gf.add_argument("--terms", type=int, required=True)
    p_gf.add_argument("--format", choices=_FORMATS, default="plain")
    p_gf.set_defaults(handler=_cmd_gf)

    p_ver = sub.add_parser("verify", help="run the identity registry")
    p_ver.add_argument("--ids", default=None, help="comma list of identity ids")
    p_ver.add_argument("--r-set", dest="r_set", default=None, help="comma list of r values")
    p_ver.add_argument("--nmax", type=int, default=DEFAULT_N_MAX)
    p_ver.add_argument("--fail-fast", action="store_true")
    p_ver.add_argument("--format", choices=_FORMATS, default="plain")
    p_ver.set_defaults(handler=_cmd_verify)

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
        return args.handler(args)
    except (ValueError, OverflowError, MemoryError) as exc:
        # oversized values fail here too, before or while allocating
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2
    finally:
        if capped:
            sys.set_int_max_str_digits(cap)


def main() -> None:
    sys.exit(run())

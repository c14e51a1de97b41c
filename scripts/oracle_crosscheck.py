#!/usr/bin/env python3
"""Randomized cross-validation of the independent evaluation routes.

Nine blocks: determinant evaluators against each other on random specs,
the size-4 polynomial expansion, tiling counts against sequence terms,
the C-finite route (the linear expansion of det_gf and the halving of
det_recurrence) against the expansion recurrence on random rules, series
coefficients against determinant sequences, Bostan-Mori halving against
the linear expansion of det_gf on random rules at sizes past the
stepping window's first chunk, each operation of the C-finite series
value against the same operation on plain term lists, and the
determinant series of a rule with a0 not +-1, stride >= 3 and start > 0
against the expansion recurrence and the halving, and the declared series
of every registry clause against the O(n^2) expansion recurrence.  The
last block draws nothing, so the first eight see the same random stream
whether it runs or not.  One PASS/FAIL line per block; exit 1 on any
disagreement.
"""

import argparse
import random
import sys

from tridet import (
    CFinite,
    EntryRule,
    HessenbergSpec,
    SequenceKind,
    count_tilings,
    det_dense,
    det_gf,
    det_prefixes,
    det_recurrence,
    det_trudi_compositions,
    det_trudi_partitions,
    expand_rational,
    gf_catalog,
    make_entries,
    pieces_for,
    registry,
    seq_term,
)
from tridet.sequences import FAMILY_TABLE, order_refusal


def report(label: str, ok: bool) -> bool:
    print("%s %s" % ("PASS" if ok else "FAIL", label))
    return ok


def methods_agree(rng: random.Random, trials: int) -> bool:
    ok = True
    for _ in range(trials):
        n = rng.randint(1, 10)
        spec = HessenbergSpec(
            rng.choice((1, -1)), tuple(rng.randint(-9, 9) for _ in range(n))
        )
        value = det_recurrence(spec)
        if not (
            det_trudi_partitions(spec)
            == det_trudi_compositions(spec)
            == det_dense(spec)
            == value
        ):
            print("  disagreement on %r" % (spec,))
            ok = False
    return ok


def polynomial_matches(rng: random.Random, trials: int) -> bool:
    ok = True
    for _ in range(trials):
        a0 = rng.choice([v for v in range(-9, 10) if v != 0])
        a1, a2, a3, a4 = (rng.randint(-9, 9) for _ in range(4))
        expected = (
            a1**4
            - 3 * a0 * a1**2 * a2
            + 2 * a0**2 * a1 * a3
            + a0**2 * a2**2
            - a0**3 * a4
        )
        if det_dense(HessenbergSpec(a0, (a1, a2, a3, a4))) != expected:
            print("  mismatch at a0=%d entries=%r" % (a0, (a1, a2, a3, a4)))
            ok = False
    return ok


def tilings_match(rng: random.Random, trials: int) -> bool:
    kinds = (
        [(SequenceKind("gen-tribonacci", r), r - 1) for r in range(3, 9)]
        + [(SequenceKind("skip-tribonacci", r), r - 1) for r in (3, 5, 7)]
        + [(SequenceKind("k-step-fibonacci", r), r - 1) for r in range(2, 9)]
        + [(SequenceKind("gen-padovan", r), r) for r in range(3, 9)]
        + [(SequenceKind("q-sequence", r), r) for r in range(2, 9)]
        + [(SequenceKind("square-rmino", r), 0) for r in range(2, 9)]
    )
    ok = True
    for _ in range(trials):
        kind, offset = rng.choice(kinds)
        length = rng.randint(0, 40)
        if count_tilings(length, pieces_for(kind)) != seq_term(kind, length + offset):
            print("  mismatch for %r at length %d" % (kind, length))
            ok = False
    return ok


# every family at every in-domain order up to 10, in FAMILY_TABLE order
RULE_KINDS = [
    SequenceKind(family, r)
    for family in FAMILY_TABLE
    for r in (None, *range(2, 11))
    if order_refusal(family, r) is None
]


def random_rule(rng: random.Random) -> EntryRule:
    kind = rng.choice(RULE_KINDS)
    return EntryRule(
        kind,
        rng.randint(0, (kind.r or 3) + 3),
        rng.randint(1, 4),
        rng.choice((1, -1, 2, -2, 3, -3)),
    )


def cfinite_matches(rng: random.Random, trials: int) -> bool:
    ok = True
    for _ in range(trials):
        rule = random_rule(rng)
        spec = make_entries(rule, rng.randint(1, 80))
        expected = det_prefixes(spec)
        dets = det_gf(rule).coefficients(0, spec.n)
        if dets != expected or det_recurrence(spec) != expected[-1]:
            print("  disagreement on %r, n=%d" % (rule, spec.n))
            ok = False
    return ok


def series_match() -> bool:
    rows = []
    for r in range(3, 9):
        gt = SequenceKind("gen-tribonacci", r)
        rows.append(("i22", r, EntryRule(gt, 1, 2, 1), True))
        if r % 2 == 1:
            rows.append(("i23", r, EntryRule(gt, r, 2, 1), True))
        rows.append(("i28", r, EntryRule(gt, 0, 2, 1), False))
        rows.append(("i29", r, EntryRule(gt, 0, 2, -1), False))
        rows.append(("i30", r, EntryRule(gt, r + 2, 1, 1), False))
    rows.append(("i24", 3, EntryRule(SequenceKind("tribonacci"), 3, 2, 1), False))
    ok = True
    for family, r, rule, alternating in rows:
        coeffs = expand_rational(gf_catalog(family, r), 24)
        dets = det_prefixes(make_entries(rule, 24))
        for n in range(1, 25):
            got = coeffs[n - 1]
            if alternating and n % 2 == 0:
                got = -got
            if got != dets[n]:
                print("  mismatch for %s r=%d at n=%d" % (family, r, n))
                ok = False
    return ok


def halving_matches(rng: random.Random, trials: int) -> bool:
    ok = True
    for _ in range(trials):
        rule = random_rule(rng)
        spec = make_entries(rule, rng.randint(257, 1100))
        if det_recurrence(spec) != det_gf(rule).coefficients(0, spec.n)[-1]:
            print("  disagreement on %r, n=%d" % (rule, spec.n))
            ok = False
    return ok


SERIES_TERMS = 40


def random_series(rng: random.Random) -> CFinite:
    num = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
    return CFinite(num, [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])


def recurrence_terms(den, head, count: int) -> list:
    """head, then c_n = -sum_k den_k c_(n-k) until count terms."""
    terms = list(head[:count])
    while len(terms) < count:
        n = len(terms)
        terms.append(-sum(den[k] * terms[n - k] for k in range(1, min(len(den), n + 1))))
    return terms


def series_operations_match(rng: random.Random, trials: int) -> bool:
    m = SERIES_TERMS
    ok = True
    for _ in range(trials):
        f, g = random_series(rng), random_series(rng)
        a, b = f.coefficients(0, 4 * m), g.coefficients(0, m)
        k, c, s = rng.randint(1, 6), rng.choice((-3, -2, -1, 2, 3)), rng.randint(1, 4)
        head = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        den = list(g.den)
        checks = [
            ("shift +%d" % k, f.shift(k), ([0] * k + a)[:m]),
            ("shift -%d" % k, f.shift(-k), a[k : k + m]),
            ("scale %d" % c, f.scale(c), [t * c**n for n, t in enumerate(a[:m])]),
            ("sum", f + g, [x + y for x, y in zip(a[:m], b)]),
            ("product", f * g, [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(m)]),
            ("multisect %d" % s, f.multisect(s), a[::s][:m]),
            ("from_head", CFinite.from_head(den, head), recurrence_terms(den, head, m)),
        ]
        for label, value, expected in checks:
            if value.coefficients(0, m - 1) != expected:
                print("  %s disagrees on %r, %r" % (label, f, g))
                ok = False
    return ok


def entry_free_matches(rng: random.Random, trials: int) -> bool:
    """det_gf against det_prefixes and det_recurrence with a0 not +-1, stride >= 3, start > 0."""
    ok = True
    for _ in range(trials):
        kind = rng.choice(RULE_KINDS)
        rule = EntryRule(
            kind,
            rng.randint(1, (kind.r or 3) + 3),
            rng.randint(3, 5),
            rng.choice((2, -2, 3, -3)),
        )
        spec = make_entries(rule, rng.randint(1, 80))
        expected = det_prefixes(spec)
        dets = det_gf(rule).coefficients(0, spec.n)
        if dets != expected or det_recurrence(spec) != expected[-1]:
            print("  disagreement on %r, n=%d" % (rule, spec.n))
            ok = False
    return ok


CLAUSE_R_MAX = 13
CLAUSE_N_MAX = 60


def clauses_match() -> bool:
    """Each registry clause's series against det_prefixes at in-domain r <= 13, n <= 60."""
    ok = True
    for case in registry():
        if case.clauses is None:
            continue
        orders = [None]
        if case.parameterized:
            orders = [r for r in range(2, CLAUSE_R_MAX + 1) if case.accepts_r(r)]
        for r in orders:
            cap = case.n_cap(r)
            top = CLAUSE_N_MAX if cap is None else min(CLAUSE_N_MAX, cap)
            for clause in case.clauses(r):
                dets = det_prefixes(make_entries(clause.rule, top))
                for n, value in enumerate(clause.gf.coefficients(clause.first, top), clause.first):
                    if value != dets[n]:
                        print("  %s r=%r: clause from n=%d differs at n=%d"
                              % (case.id, r, clause.first, n))
                        ok = False
                        break
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260822)
    parser.add_argument("--trials", type=int, default=300)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    ok = True
    ok &= report(
        "determinant evaluators agree on %d random specs" % args.trials,
        methods_agree(rng, args.trials),
    )
    ok &= report(
        "size-4 polynomial expansion on %d random tuples" % args.trials,
        polynomial_matches(rng, args.trials),
    )
    ok &= report(
        "tiling counts match sequence terms on %d random draws" % args.trials,
        tilings_match(rng, args.trials),
    )
    ok &= report(
        "C-finite route matches the expansion recurrence on %d random rules" % args.trials,
        cfinite_matches(rng, args.trials),
    )
    ok &= report("series coefficients match determinant sequences", series_match())
    ok &= report(
        "halving matches the linear C-finite expansion on %d random rules, n 257..1100"
        % args.trials,
        halving_matches(rng, args.trials),
    )
    ok &= report(
        "C-finite series operations match term-list arithmetic on %d random pairs"
        % args.trials,
        series_operations_match(rng, args.trials),
    )
    ok &= report(
        "entry-free determinant series match the expansion and the halving on %d random rules"
        % args.trials,
        entry_free_matches(rng, args.trials),
    )
    ok &= report(
        "registry clauses match the O(n^2) determinant oracle for r <= %d, n <= %d"
        % (CLAUSE_R_MAX, CLAUSE_N_MAX),
        clauses_match(),
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance sweep; prints one PASS/FAIL line per criterion."""

import json
import random
import time
from contextlib import contextmanager

import pytest

import tridet.identities as identities_module
from tridet import (
    EntryRule,
    HessenbergSpec,
    IdentityCase,
    SequenceKind,
    check_all,
    count_tilings,
    det_dense,
    det_prefixes,
    det_recurrence,
    det_trudi_compositions,
    det_trudi_partitions,
    enumerate_tilings,
    expand_rational,
    gf_catalog,
    make_entries,
    pieces_for,
    registry,
    seq_term,
    square_rmino_closed,
    tribonacci_explicit,
)
from tridet.cli import run

ALL_IDS = {"I-%02d" % i for i in range(1, 37)} | {"I-19b"}


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print("ACCEPTANCE criterion %d FAIL (%s)" % (num, label))
            raise
        with capsys.disabled():
            print("ACCEPTANCE criterion %d PASS (%s)" % (num, label))

    return _criterion


def test_criterion_1_full_identity_suite(criterion):
    with criterion(1, "full registry sweep, exact, under 60s"):
        started = time.monotonic()
        reports, summary = check_all(r_set=(2, 3, 4, 5, 6, 7, 8), n_max=24)
        elapsed = time.monotonic() - started
        assert summary.failed == 0, [rep for rep in reports if not rep.passed][:10]
        assert summary.checked == summary.passed > 0
        assert {rep.id for rep in reports} == ALL_IDS
        assert elapsed < 60.0


def test_criterion_2_worked_example_values(criterion):
    with criterion(2, "three displayed evaluations: 100, 0, 1"):
        case = {c.id: c for c in registry()}["I-36"]
        values = []
        for n in (1, 2, 3):
            (lhs, rhs), = case.sweep(None, n, n)
            assert lhs == rhs
            values.append(rhs)
        assert values == [100, 0, 1]
        assert values[2] == seq_term(SequenceKind("padovan"), 7)


def test_criterion_3_size_four_polynomial(criterion):
    with criterion(3, "size-4 determinant equals its expanded polynomial"):
        rng = random.Random(90817243)
        for _ in range(50):
            a0 = rng.choice([v for v in range(-9, 10) if v != 0])
            a1, a2, a3, a4 = (rng.randint(-9, 9) for _ in range(4))
            spec = HessenbergSpec(a0, (a1, a2, a3, a4))
            expected = (
                a1**4
                - 3 * a0 * a1**2 * a2
                + 2 * a0**2 * a1 * a3
                + a0**2 * a2**2
                - a0**3 * a4
            )
            assert det_dense(spec) == expected


def test_criterion_4_oracle_equivalence(criterion):
    with criterion(4, "four evaluators agree on random specs"):
        rng = random.Random(53791113)
        for _ in range(200):
            n = rng.randint(1, 12)
            spec = HessenbergSpec(
                rng.choice((1, -1)), tuple(rng.randint(-9, 9) for _ in range(n))
            )
            value = det_recurrence(spec)
            assert det_trudi_partitions(spec) == value
            assert det_trudi_compositions(spec) == value
            assert det_dense(spec) == value
        for n in (13, 20, 27, 33, 37, 40):
            spec = HessenbergSpec(
                rng.choice((1, -1)), tuple(rng.randint(-9, 9) for _ in range(n))
            )
            assert det_trudi_partitions(spec) == det_recurrence(spec)


def test_criterion_5_tiling_interpretations(criterion):
    with criterion(5, "piece counts match sequence terms"):
        correspondence = (
            [(SequenceKind("gen-tribonacci", r), r - 1) for r in range(3, 9)]
            + [(SequenceKind("skip-tribonacci", r), r - 1) for r in (3, 5, 7)]
            + [(SequenceKind("k-step-fibonacci", r), r - 1) for r in range(2, 9)]
            + [(SequenceKind("gen-padovan", r), r) for r in range(3, 9)]
            + [(SequenceKind("q-sequence", r), r) for r in range(2, 9)]
            + [(SequenceKind("square-rmino", r), 0) for r in range(2, 9)]
        )
        for kind, offset in correspondence:
            pieces = pieces_for(kind)
            for n in range(offset, 31):
                assert count_tilings(n - offset, pieces) == seq_term(kind, n), (kind, n)
        for kind in (
            SequenceKind("tribonacci"),
            SequenceKind("gen-padovan", 3),
            SequenceKind("k-step-fibonacci", 4),
            SequenceKind("q-sequence", 4),
            SequenceKind("square-rmino", 2),
        ):
            pieces = pieces_for(kind)
            for length in range(0, 15):
                assert len(enumerate_tilings(length, pieces)) == count_tilings(
                    length, pieces
                )


def test_criterion_6_series_agree_with_determinants(criterion):
    with criterion(6, "catalog coefficients equal determinant sequences"):
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
        for family, r, rule, alternating in rows:
            coeffs = expand_rational(gf_catalog(family, r), 20)
            dets = det_prefixes(make_entries(rule, 20))
            for n in range(1, 21):
                got = coeffs[n - 1]
                if alternating and n % 2 == 0:
                    got = -got
                assert got == dets[n], (family, r, n)


def test_criterion_7_explicit_formula_crosschecks(criterion):
    with criterion(7, "closed forms match recurrences and twin cases agree"):
        trib = SequenceKind("tribonacci")
        for n in range(2, 41):
            assert tribonacci_explicit(n) == seq_term(trib, n)
        for r in range(2, 9):
            kind = SequenceKind("square-rmino", r)
            for m in range(0, 31):
                assert square_rmino_closed(r, m) == seq_term(kind, m)
        cases = {c.id: c for c in registry()}
        for n in range(1, 25):
            (a_lhs, a_rhs), = cases["I-09"].sweep(None, n, n)
            (b_lhs, b_rhs), = cases["I-24"].sweep(None, n, n)
            assert a_lhs == a_rhs == b_lhs == b_rhs
        for n in range(3, 25):
            (a_lhs, a_rhs), = cases["I-13"].sweep(None, n, n)
            (b_lhs, b_rhs), = cases["I-27"].sweep(None, n, n)
            assert a_lhs == a_rhs == b_lhs == b_rhs


def test_criterion_8_floor_formulas(criterion):
    with criterion(8, "floor closed forms hold across the sweep"):
        reports, summary = check_all(
            r_set=(2, 3, 4, 5, 6, 7, 8), n_max=24, ids=["I-03", "I-07", "I-33"]
        )
        assert summary.failed == 0
        # I-03 and I-07 run once each over n 1..24; I-33 over seven orders
        assert summary.checked == 24 + 24 + 7 * 24


def _forged_registry():
    return [
        IdentityCase(
            id="X-00", description="forged failing case", parameterized=False,
            accepts_r=lambda r: False, n_min=lambda r: 1, n_cap=lambda r: 2,
            sweep=lambda r, lo, hi: [(0, 1)] * (hi - lo + 1),
            evaluate=lambda r, n: (0, 1), rule=None, rhs=None,
        )
    ]


def test_criterion_9_cli_contract(criterion, capsys, monkeypatch):
    with criterion(9, "documented outputs byte-for-byte and exit codes 0/1/2"):
        assert run(["seq", "tribonacci", "--from", "0", "--to", "10",
                    "--format", "plain"]) == 0
        assert capsys.readouterr().out == "0 0 1 1 2 4 7 13 24 44 81\n"

        assert run(["det", "--a0", "1", "--kind", "tribonacci", "--start", "3",
                    "--stride", "2", "-n", "4", "--method", "all"]) == 0
        assert capsys.readouterr().out == (
            "recurrence -13\n"
            "trudi-partitions -13\n"
            "trudi-compositions -13\n"
            "dense -13\n"
        )

        assert run(["verify", "--ids", "I-08", "--nmax", "10",
                    "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["checked"] == 7

        monkeypatch.setattr(identities_module, "registry", _forged_registry)
        assert run(["verify"]) == 1
        capsys.readouterr()
        monkeypatch.undo()

        assert run(["det", "--a0", "0", "--kind", "tribonacci", "--start", "0",
                    "--stride", "1", "-n", "3"]) == 2
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

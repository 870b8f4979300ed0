"""Acceptance criteria, one test per criterion at its stated parameters.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and enforces the stated runtime budget as a hard assert with
generous slack removed only where the budget itself is the criterion.
"""

import hashlib
import json
import time
from collections import Counter

import pytest

from dirichletj.cli import (
    suite_carlitz,
    suite_consistency,
    suite_dedekind_jk,
    suite_duality_dirichlet,
    suite_duality_jn,
    suite_e2_oracle,
    suite_eisenstein,
    suite_gbn_theorem,
    suite_von_staudt,
)


def _report_line(n, label, report, budget):
    status = "PASS" if report.failed == 0 else "FAIL"
    line = (
        f"ACCEPTANCE {n} [{label}]: {status} "
        f"({report.passed}/{report.run} passed, {report.findings} findings, "
        f"{report.wall_time:.2f}s / budget {budget}s)"
    )
    print(line, flush=True)
    return line


def test_criterion_1_von_staudt():
    report = suite_von_staudt(max_k=30)
    _report_line(1, "von Staudt-Clausen k <= 30", report, 1)
    assert report.failed == 0 and report.run == 30
    assert report.wall_time < 1.0


def test_criterion_2_gbn_dual_pipeline():
    start = time.perf_counter()
    report = suite_gbn_theorem(max_modulus=16, max_weight=12, moduli=(), moduli_invert2=())
    elapsed = time.perf_counter() - start
    _report_line(2, "B_{k,chi} dual pipelines, modulus <= 16, k <= 12", report, 30)
    assert report.failed == 0
    assert elapsed < 30


def test_criterion_3_carlitz():
    report = suite_carlitz(conductors=(3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27), max_k=20)
    _report_line(3, "Carlitz congruences", report, 120)
    assert report.failed == 0
    assert report.wall_time < 120


def test_carlitz_on_the_wide_grid_is_pinned():
    # The wide Carlitz grid: every conductor 3-64 at k <= 20, so the composite, 2-power and mod-4 rows
    # are pinned beside the odd prime powers.  The sha256 is of the suite's rows as
    # json.dumps writes them; 1.5 s of CPU on a 2-core VM.
    start = time.process_time()
    report = suite_carlitz(conductors=range(3, 65), max_k=20)
    rows = list(suite_carlitz.__wrapped__(conductors=range(3, 65), max_k=20))
    elapsed = time.process_time() - start
    _report_line(3, "Carlitz congruences, conductors 3-64, k <= 20", report, 5)
    assert (report.run, report.passed, report.failed, report.findings) == (7560, 7560, 0, 0)
    kinds = Counter("unit" if row["case_kind"].endswith("-unit") else row["case_kind"] for _, _, row in rows)
    assert kinds == {"composite": 1920, "2-power": 300, "mod4": 10, "p-congruence": 2877,
                     "p^v-congruence": 484, "unit": 1969}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "59b91f3288138447d727e7b380130329da1667155989447f07fa57ca7b4a2f9b"
    assert elapsed < 5


def test_gbn_theorem_on_the_wide_grid_is_pinned():
    # The wide gbn-theorem grid: both B_(k,chi) pipelines on every character of modulus <= 40 at
    # k <= 16, and the denominator ideal against pi_* J_chi at the odd primes <= 61, at 4, 8, 16
    # and 32, and with 2 inverted at 9, 25, 27, 49, 81, 121 and 125.  The rows are drawn once and
    # counted here; the sha256 is of the rows as json.dumps writes them.  About 2 s of CPU on a
    # 2-core VM.
    odd_primes = [p for p in range(3, 62) if all(p % d for d in range(2, p))]
    start = time.process_time()
    rows = list(suite_gbn_theorem.__wrapped__(max_modulus=40, max_weight=16, moduli=(*odd_primes, 4, 8, 16, 32),
                                              moduli_invert2=(9, 25, 27, 49, 81, 121, 125)))
    elapsed = time.process_time() - start
    outcomes = Counter(outcome for _, outcome, *_ in rows)
    print(f"ACCEPTANCE 4 [gbn-theorem, wide grid]: {len(rows)} rows, {outcomes[True]} passed, "
          f"{outcomes['finding']} findings, {elapsed:.2f}s / budget 5s", flush=True)
    assert (len(rows), outcomes[True], outcomes[False], outcomes["finding"]) == (20554, 20554, 0, 0)
    assert Counter(case[0] for case, *_ in rows) == {0: 8330, 1: 12224}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "3bf19d2ad7187c710ca75f7c18f544980e6054d37636a7f42c4e4abbe0a7faa8"
    assert elapsed < 5


def test_criterion_4_denominator_theorem():
    report = suite_gbn_theorem(
        max_modulus=0, max_weight=12, moduli=(3, 4, 5, 7, 11, 13), moduli_invert2=(9, 25, 27)
    )
    _report_line(4, "denominator ideal vs homotopy groups, |k| <= 12", report, 120)
    assert report.failed == 0
    assert report.wall_time < 120


def test_criterion_5_e2_oracle():
    report = suite_e2_oracle(primes=(3, 5, 7), v_range=(2, 3), t_min=-10, t_max=10, max_nprime=0)
    _report_line(5, "SNF oracle vs closed forms", report, 30)
    assert report.failed == 0
    assert report.wall_time < 30


def test_criterion_6_consistency():
    report = suite_consistency(max_conductor=27, i_min=-8, i_max=24)
    _report_line(6, "direct tables vs p-completion assembly", report, 60)
    assert report.failed == 0
    assert report.wall_time < 60


def test_criterion_7_duality():
    report = suite_duality_dirichlet(odd_primes=(3, 5, 7), odd_vs=(1, 2), two_vs=(2, 3, 4), t_min=-20, t_max=20)
    report_jn = suite_duality_jn(strict_levels=(4, 8, 12), lax_levels=(1, 3, 5), t_min=-10, t_max=10)
    _report_line(7, "Brown-Comenetz dualities", report, 30)
    _report_line(7, "profinite J(N) duality", report_jn, 30)
    assert report.failed == 0 and report_jn.failed == 0
    assert report.wall_time + report_jn.wall_time < 30


def test_criterion_8_dedekind():
    report = suite_dedekind_jk(ts=(1, 2, 3))
    _report_line(8, "Dedekind zeta vs J(K)", report, 10)
    assert report.failed == 0 and report.run == 12
    assert report.wall_time < 10


def test_criterion_9_eisenstein():
    report = suite_eisenstein(conductors=(1, 3, 4, 5, 7), max_k=9, max_classical_weight=20, n_max=200)
    _report_line(9, "Eisenstein congruences (mandatory)", report, 60)
    assert report.failed == 0
    assert report.wall_time < 60


def test_criterion_10_splitting():
    report = suite_e2_oracle(primes=(), v_range=(), t_min=0, t_max=0, max_nprime=30, max_split_p=13)
    # strip the oracle_2 cases the suite always runs; only count splitting rows
    _report_line(10, "cyclotomic splitting counts", report, 10)
    assert report.failed == 0
    assert report.wall_time < 10

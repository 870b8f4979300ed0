"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = run.json.loads(run.REFERENCE.read_text())["workloads"]


def draw(dj, workload, seed):
    return run.in_child(workloads.build_ops, dj, workload, seed, REFERENCE[workload]["cost_ms"])[0]


@pytest.fixture(scope="module")
def dj():
    return run.load_package(SRC)


# -- calibration ---------------------------------------------------------------


def test_scaling_divides_out_the_speed_of_the_moment():
    ref = calib.REFERENCE_S
    assert calib.scale([ref, ref]) == pytest.approx(1.0)
    latencies = [0.001 * (i + 1) for i in range(100)]

    def one_pass(slowdown):
        return {"latencies": [t * slowdown for t in latencies], "cpu": sum(latencies) * slowdown,
                "wall": 1.0, "rss_mb": 20.0, "calibration": [ref * slowdown] * 5}

    steady, _ = run.end_to_end([one_pass(1.0)] * 3, 0.1)
    mixed, _ = run.end_to_end([one_pass(1.0), one_pass(2.0), one_pass(1.5)], 0.1)
    for name in ("cpu_s", "op_p50_ms", "op_p90_ms"):
        assert mixed[name] == pytest.approx(steady[name])
    assert steady["op_p50_ms"] == pytest.approx(50.0)


def test_calibrator_samples_once_per_every_s_of_work(monkeypatch):
    monkeypatch.setattr(calib, "sample", lambda: 1.0)
    cal = calib.Calibrator()
    for _ in range(10):
        cal.after(calib.EVERY_S * 0.3)
    assert len(cal.samples) == 2  # after the 4th and the 8th op


# -- percentile rule -----------------------------------------------------------


def test_p90_of_100_samples_has_exactly_ten_beyond():
    assert stats.rank(90, 100) == 90
    assert stats.samples_beyond(90, 100) == 10
    assert stats.percentile(list(range(1, 101)), 90) == 90


def test_highest_percentile_keeps_ten_samples_beyond():
    assert stats.highest_percentile(99) == 50
    assert stats.highest_percentile(100) == 90
    assert stats.highest_percentile(999) == 90
    assert stats.highest_percentile(1000) == 99
    assert stats.highest_percentile(10) is None
    for n in (20, 100, 137, 1000, 14322):
        p = stats.highest_percentile(n)
        assert stats.samples_beyond(p, n) >= stats.MIN_TAIL


def test_percentile_refuses_an_unsupported_tail():
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)


# -- self time -------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # f0 [0, 10] -> f1 [1, 4] -> f2 [2, 3]
    #            -> f1 [5, 9]
    # f2 [11, 12] is a second root.
    fids = array("i", [0, 1, 2, 1, 2])
    parents = array("i", [-1, 0, 1, 0, -1])
    starts = array("d", [0, 1, 2, 5, 11])
    ends = array("d", [10, 4, 3, 9, 12])
    calls, self_s = tracer.self_times(fids, parents, starts, ends, 3)
    assert calls == [1, 2, 2]
    assert self_s == pytest.approx([10 - 3 - 4, (3 - 1) + 4, 1 + 1])
    assert sum(self_s) == pytest.approx(10 + 1)  # the roots' durations


def test_tracer_wraps_imported_names_and_methods(dj):
    # In a forked child, so this process's package stays unwrapped and cold.
    def traced_work(dj):
        tr = tracer.Tracer()
        tr.install(dj.package)
        chi = dj.characters.character_from_index(5, 1)
        dj.bernoulli.gbn(chi, 3)
        totals = tracer.SpanTotals()
        totals.add(tr.spans())
        misses = dj.bernoulli._gbn_primitive.__wrapped__.cache_info().misses
        list_misses = dj.bernoulli._bernoulli_list.cache_info().misses
        return totals.calls, misses, list_misses

    calls, misses, list_misses = run.in_child(traced_work, dj)[0]
    assert calls["bernoulli.series_pipeline"] == misses == 1
    # Only bernoulli calls series_quotient, through the name it imported:
    # once per series pipeline and once per Bernoulli-number table.
    assert calls["exactalg.series_quotient"] == misses + list_misses
    assert calls["cyclotomic.CycElement.mul"] > 0  # a method, also reached as __rmul__
    assert calls["characters.evaluate"] > 0


def test_cold_start_guard_sees_every_cache(dj):
    caches = tracer.find_caches(dj.package)
    assert set(run.CACHES) <= set(caches)
    tracer.assert_cold(caches)

    def warm(dj):
        dj.padic.topological_generator(5)
        try:
            tracer.assert_cold(tracer.find_caches(dj.package))
        except tracer.ColdStartError as exc:
            return str(exc)
        return None

    message = run.in_child(warm, dj)[0]
    assert message and "padic._TOPGEN_CACHE" in message


# -- seeded cases ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_case_list(dj, workload):
    first, again, other = draw(dj, workload, 7), draw(dj, workload, 7), draw(dj, workload, 8)
    assert workloads.case_digest(first) == workloads.case_digest(again)
    assert len(first) == len(other)
    assert workloads.case_digest(first) != workloads.case_digest(other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawn_group_is_pinned(dj, workload):
    ops = draw(dj, workload, 3)
    assert len(ops) == REFERENCE[workload]["ops"]
    assert {op.group for op in ops} <= set(REFERENCE[workload]["groups"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_order_the_same_cases(dj, workload):
    first, other = draw(dj, workload, 1), draw(dj, workload, 2)
    assert sorted(op.key for op in first) == sorted(op.key for op in other)
    groups = [op.group for op in first]
    runs = [g for i, g in enumerate(groups) if i == 0 or groups[i - 1] != g]
    assert len(runs) == len(set(groups))  # each group's ops run back to back


def test_cli_mix_gives_each_stratum_an_equal_share(dj):
    costs = REFERENCE["cli-cold"]["cost_ms"]
    ops = draw(dj, "cli-cold", 0)
    for name, cands in workloads._cli_strata(dj):
        pinned = [costs[workloads.cli_group(argv)] for argv in cands]
        drawn = [op for op in ops if op.key[1] == name]
        assert len(drawn) == workloads.cli_stratum_calls(pinned)
        mean = sum(pinned) / len(pinned)
        if len(drawn) < len(cands):  # not capped by the size of the stratum
            assert abs(len(drawn) * mean - workloads.CLI_STRATUM_MS) <= mean / 2 + 1e-9 or len(drawn) == 1


def test_pass_count_depends_on_seconds_only():
    for workload in workloads.WORKLOADS:
        assert workloads.passes(workload, 30) == int(30 // workloads.PASS_SECONDS[workload])
        assert workloads.passes(workload, 1) == 1

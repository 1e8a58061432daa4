"""Unit tests for schedules, basis scans and the stability protocol."""

import hashlib
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mcfqkd import runner
from mcfqkd.coincidence import count_coincidences, cross_correlation, find_peak_delay, tally_basis
from mcfqkd.config import preset_inner, preset_stability, selected_pairs
from mcfqkd.linkbudget import model_from_config, sweep_lengths
from mcfqkd.photonsim import PS_PER_S, LinkParams, ScheduleSegment, SourceParams, Stream
from mcfqkd.qkdmath import positive_qber_threshold
from mcfqkd.runner import (
    analyze_segment,
    parallel_map,
    run_basis_scan,
    run_stability,
    scan_schedule,
    simulate_segment,
    stability_schedule,
)
from mcfqkd.tagio import write_timetags


def record_sha256(stream, tmp_path):
    """SHA-256 of the records ``tagio`` writes for ``stream``: its file past the header."""
    path = tmp_path / f"channel{stream.channel_id}.mcqt"
    write_timetags(path, stream)
    return hashlib.sha256(path.read_bytes()[16:]).hexdigest()


def quick_inner(acquisition_s=2.0, seed=42):
    cfg = preset_inner(seed=seed)
    cfg.schedule.acquisition_s = acquisition_s
    return cfg


class TestParallelMap:
    """The pool outlives each call, as its threads' glibc arenas do, and a call
    behaves as one on a pool of its own."""

    @pytest.fixture(autouse=True)
    def two_threads(self, monkeypatch):
        monkeypatch.setenv("MCFQKD_THREADS", "2")

    @staticmethod
    def thread(k):
        time.sleep(0.01)  # so that both threads take items
        return threading.current_thread()

    def test_threads_outlive_each_call(self):
        first = parallel_map(self.thread, range(4))
        assert len(set(first)) == 2 and threading.current_thread() not in first
        assert set(parallel_map(self.thread, range(4))) == set(first)

    def test_call_from_a_pool_thread_runs_in_it(self):
        # on the pool it would wait for its own threads, which wait for it
        def outer(k):
            return parallel_map(self.thread, range(3)), threading.current_thread()

        done = []
        caller = threading.Thread(target=lambda: done.append(parallel_map(outer, range(4))), daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive() and len(done) == 1, "nested call did not return"
        for inner, thread in done[0]:
            assert inner == [thread] * 3

    def test_first_calls_from_many_threads_share_one_pool(self, monkeypatch):
        # eight callers race to make the pool of a process that has none yet;
        # each gets its own results, and one pool is kept
        monkeypatch.setattr(runner, "_POOLS", {})
        results, switch = {}, sys.getswitchinterval()
        callers = [
            threading.Thread(target=lambda c=c: results.update({c: parallel_map(lambda x: x * c, range(50))}))
            for c in range(8)
        ]
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(caller.is_alive() for caller in callers)
        assert results == {c: [x * c for x in range(50)] for c in range(8)}
        assert len(runner._POOLS) == 1

    def test_no_item_runs_once_a_call_raises(self):
        finished = []

        def work(k):
            if k == 0:
                raise ValueError("item 0")
            time.sleep(0.05)
            finished.append(k)

        with pytest.raises(ValueError, match="^item 0$"):
            parallel_map(work, range(8))
        done = list(finished)
        time.sleep(0.3)
        assert finished == done and len(done) < 7


class TestSchedules:
    def test_basis_scan_layout(self, monkeypatch):
        sched = scan_schedule(quick_inner(acquisition_s=60.0))
        assert len(sched) == 2
        assert sched[0].basis == "HV"
        assert sched[1].start_ps == 60 * PS_PER_S
        assert sched[1].start_ps + sched[1].duration_ps == 120 * PS_PER_S
        # each segment is simulated at the pair rate scaled for its basis
        cfg = quick_inner()
        cfg.schedule.rate_scales = {"HV": 1.0, "DA": 0.99}
        rates, simulate = [], runner.simulate_run

        def recording(source, *args, **kwargs):
            rates.append(source.pair_rate)
            return simulate(source, *args, **kwargs)

        monkeypatch.setattr(runner, "simulate_run", recording)
        for idx, segment in enumerate(scan_schedule(cfg)):
            simulate_segment(cfg, selected_pairs(cfg)[0], segment, idx, 0.0)
        assert rates == [cfg.source.pair_rate, cfg.source.pair_rate * 0.99]

    def test_stability_slot_count(self):
        sched = stability_schedule(24.0, 30.0, 60.0)
        assert len(sched) == 48
        bases = [seg.basis for seg in sched]
        assert bases[:4] == ["HV", "DA", "HV", "DA"]

    def test_empty_schedule_rejected(self):
        # a stability run shorter than half a slot has no slots
        with pytest.raises(ValueError, match=r"^no slot: total_hours 0\.2, switch_minutes 30\.0$"):
            stability_schedule(0.2, 30.0, 60.0)

    def test_invalid_segment(self):
        with pytest.raises(ValueError, match=r"^basis must be one of \['HV', 'DA'\], got 'XY'$"):
            ScheduleSegment("XY", 0, 60 * PS_PER_S)
        with pytest.raises(ValueError, match="^duration_ps must be an integer > 0, got 0$"):
            ScheduleSegment("HV", 0, 0)
        # the simulator draws integer times: a float start is refused, not rounded
        with pytest.raises(ValueError, match=r"^start_ps must be an integer, got 1\.5$"):
            ScheduleSegment("HV", 1.5, 60 * PS_PER_S)

    @pytest.mark.parametrize("acquisition_s", [1e-13, 4e-13])
    def test_acquisition_rounding_to_0_ps_names_it(self, acquisition_s):
        # a segment holds whole ps: 1e-13 s would become an acquisition of 0 ps
        message = f"acquisition_s must be in [1 ps, 2**60 ps) once rounded, got {acquisition_s}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stability_schedule(1.0, 15.0, acquisition_s)
        assert stability_schedule(1.0, 15.0, 1e-12)[0].duration_ps == 1

    @pytest.mark.parametrize("total_hours", [1e5, 320.5])
    def test_schedule_past_the_tag_time_limit_names_its_hours(self, total_hours):
        # 2**60 ps is 320.26 h: 641 slots of 30 min end past it, refused before the
        # slots are listed, where a mistyped ``--hours`` would list billions of them
        with pytest.raises(ValueError, match=rf"^last slot ends past 2\*\*60 ps: total_hours {total_hours}, "):
            stability_schedule(total_hours, 30.0, 60.0)
        assert len(stability_schedule(320.0, 30.0, 60.0)) == 640

    def test_acquisition_must_fit_slot(self):
        with pytest.raises(ValueError):
            stability_schedule(1.0, 1.0, 120.0)

    def test_slot_that_the_acquisition_fills_exactly(self):
        # slot starts are whole multiples of the slot in ps, so an
        # acquisition as long as its slot never overlaps the next one
        sched = stability_schedule(24.0, 13.37, 13.37 * 60.0)
        assert [seg.start_ps for seg in sched[:2]] == [0, 802_200_000_000_000]
        assert sched[0].duration_ps == 802_200_000_000_000


class TestRunBasisScan:
    def test_ring_aggregation_is_exact_sum(self):
        report = run_basis_scan(quick_inner())
        assert len(report.pairs) == 3
        assert report.total_bits_s == sum(p.skr_clamped_bits_s for p in report.pairs)
        for pair in report.pairs:
            assert pair.skr_clamped_bits_s == max(0.0, pair.skr_bits_s)

    def test_qber_bounds_and_positivity(self):
        report = run_basis_scan(quick_inner())
        q_star = positive_qber_threshold(report.ec_efficiency)
        for pair in report.pairs:
            for res in (pair.hv, pair.da):
                assert 0.0 <= res.qber <= 0.5
            if max(pair.hv.qber, pair.da.qber) < q_star - 0.02:
                assert pair.skr_bits_s > 0

    def test_results_independent_of_pair_order(self, monkeypatch):
        cfg = quick_inner()
        full = run_basis_scan(cfg)
        monkeypatch.setenv("MCFQKD_THREADS", "1")
        serial = run_basis_scan(cfg)
        # the pool returns the reports in the id order of the selected pairs
        assert [p.pair_id for p in full.pairs] == [p.pair_id for p in serial.pairs] == [0, 1, 2]
        for a, b in zip(full.pairs, serial.pairs):
            assert a.pair_id == b.pair_id
            assert a.skr_bits_s == b.skr_bits_s
            assert a.hv.counts == b.hv.counts

    def test_pool_item_is_one_acquisition(self, monkeypatch):
        # the scan hands the pool one (pair, segment) acquisition per item, so the
        # inner ring's 3 pairs keep 2 threads busy, and folds each pair's tallies
        # into its report in pair order, each under its own basis
        cfg, items, pool = quick_inner(), [], runner.parallel_map

        def recording(fn, work):
            items.extend(work)
            return pool(fn, work)

        monkeypatch.setattr(runner, "parallel_map", recording)
        report = run_basis_scan(cfg)
        assert [(pair.pair_id, k) for pair, k in items] == [(p, k) for p in (0, 1, 2) for k in (0, 1)]
        segments = scan_schedule(cfg)
        for pair, reported in zip(selected_pairs(cfg), report.pairs):
            for k, segment in enumerate(segments):
                alice, bob, _ = simulate_segment(cfg, pair, segment, k, 0.0)
                assert getattr(reported, segment.basis.lower()) == analyze_segment(alice, bob, segment, cfg)

    def test_single_pair_subset(self):
        cfg = quick_inner()
        cfg.pairs = [1]
        report = run_basis_scan(cfg)
        assert [p.pair_id for p in report.pairs] == [1]

    def test_reproducible_across_calls(self):
        r1 = run_basis_scan(quick_inner(seed=9))
        r2 = run_basis_scan(quick_inner(seed=9))
        assert [p.skr_bits_s for p in r1.pairs] == [p.skr_bits_s for p in r2.pairs]

    def test_calibrated_rates_near_target(self):
        report = run_basis_scan(quick_inner(acquisition_s=5.0))
        for pair in report.pairs:
            assert pair.hv.coincidence_rate_cps == pytest.approx(4262.6, rel=0.05)
            assert pair.hv.qber == pytest.approx(0.03, abs=0.01)


class TestRunStability:
    def test_point_count_and_alternation(self):
        points = run_stability(
            preset_stability(), total_hours=1.0, switch_minutes=15.0, acquisition_s=2.0
        )
        assert len(points) == 4
        assert [p.basis for p in points] == ["HV", "DA", "HV", "DA"]
        assert [p.slot for p in points] == [0, 1, 2, 3]
        assert points[-1].time_hours == pytest.approx(0.75)

    def test_flat_qber_without_drift(self):
        cfg = preset_stability()
        cfg.drift.rate_deg_per_hour = 0.0
        points = run_stability(cfg, total_hours=1.0, switch_minutes=15.0, acquisition_s=20.0)
        qbers = np.array([p.qber for p in points])
        sigma = np.sqrt(0.03 * 0.97 / (4250 * 20))
        assert np.all(np.abs(qbers - 0.03) < 5 * sigma)
        assert all(p.drift_offset_deg == 0.0 for p in points)

    def test_drift_keeps_qber_near_calibration(self):
        points = run_stability(
            preset_stability(), total_hours=6.0, switch_minutes=30.0, acquisition_s=5.0
        )
        qbers = np.array([p.qber for p in points])
        assert 0.025 <= qbers.mean() <= 0.035
        assert np.all(np.abs([p.drift_offset_deg for p in points]) <= 3.0)

    def test_key_rate_uses_latest_other_basis(self):
        points = run_stability(
            preset_stability(), total_hours=1.0, switch_minutes=15.0, acquisition_s=2.0
        )
        # slot 0 bootstraps from itself; afterwards the rate blends both bases
        assert points[0].skr_bits_s != 0.0
        assert points[1].skr_bits_s > 0

    def test_points_independent_of_thread_count(self, monkeypatch):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MCFQKD_THREADS", threads)
            runs.append(
                run_stability(
                    preset_stability(), total_hours=2.0, switch_minutes=15.0, acquisition_s=2.0
                )
            )
        assert len(runs[0]) == 8
        assert runs[0] == runs[1]

    def test_acquisition_working_set_is_bounded(self):
        # the stability slots run on the pair pool, one acquisition per
        # worker; each must stay within 3x the bytes of its two tag streams
        # as 16-byte records
        cfg = preset_stability()
        pair = selected_pairs(cfg)[0]
        segment = stability_schedule(1.0, 30.0, 60.0)[0]
        alice, bob, _ = simulate_segment(cfg, pair, segment, 0, 0.3)
        n_tags = len(alice) + len(bob)
        assert n_tags > 2**19  # 8 MiB of records
        del alice, bob
        tracemalloc.start()
        try:
            analyze_segment(*simulate_segment(cfg, pair, segment, 0, 0.3)[:2], segment, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * n_tags


class TestElevenPercentThreshold:
    def test_qber_below_eleven_percent_keeps_key_positive_at_unit_f(self):
        # the f=1 crossing sits at 0.1100, so any QBER below 11% is safe
        from mcfqkd.qkdmath import KeyRateInputs, secret_key_rate

        rate = secret_key_rate(KeyRateInputs(1000.0, 1000.0, 0.109, 0.109, ec_efficiency=1.0))
        assert rate > 0

    def test_qber_above_the_crossing_yields_no_key(self):
        from mcfqkd.qkdmath import KeyRateInputs, secret_key_rate

        for f in (1.0, 1.1, 1.2):
            rate = secret_key_rate(
                KeyRateInputs(1000.0, 1000.0, 0.111, 0.111, ec_efficiency=f)
            )
            assert rate < 0

    def test_threshold_root_location(self):
        assert positive_qber_threshold(1.0) == pytest.approx(0.110, abs=0.001)


class TestGoldenSegment:
    """Byte-level pins of one short acquisition: the simulated tag streams
    and the matched index pairs must not change when the simulator's
    assembly or the matcher is reworked for speed.  Re-captured when the
    simulator moved to Poisson-split detection counts and fixed-length seed
    tuples."""

    ALICE_SHA256 = "5cf55b5af830724106199add3499058bbe685c9431da38515a07971e1f10020c"
    BOB_SHA256 = "33586bec4b35160a1452cbd0ef324fd7a1ed85c1abffbd1d3d3dcf8119d0f129"
    PAIRS_SHA256 = "7862ca3dffa4fd22161344729731882ca5482fbefa6130b22d7b96f97a2a5dce"

    def test_segment_streams_and_match_indices(self, tmp_path):
        cfg = preset_inner(seed=42)
        pair = selected_pairs(cfg)[0]
        # starts 86,000 s in, so every time is far above 2**53 ps; the DA
        # segment runs at the unscaled pair rate
        cfg.schedule.rate_scales["DA"] = 1.0
        segment = ScheduleSegment("DA", 86_000 * PS_PER_S, 2 * PS_PER_S)
        alice, bob, _ = simulate_segment(cfg, pair, segment, 3, 0.5)
        assert record_sha256(alice, tmp_path) == self.ALICE_SHA256
        assert record_sha256(bob, tmp_path) == self.BOB_SHA256

        delay = round(find_peak_delay(cross_correlation(alice, bob, 50, 5000)))
        pairs = count_coincidences(alice, bob, cfg.analysis.window_ps, delay_ps=delay)
        assert pairs.dtype == np.int64 and pairs.shape == (8430, 2)
        assert hashlib.sha256(pairs.tobytes()).hexdigest() == self.PAIRS_SHA256


_NO_TAGS = Stream(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8), 0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: stability_schedule(math.inf, 30.0, 60.0), "total_hours"),
        (lambda: stability_schedule(math.nan, 30.0, 60.0), "total_hours"),
        (lambda: stability_schedule(24.0, math.nan, 60.0), "switch_minutes"),
        (lambda: stability_schedule(24.0, 30.0, math.nan), "acquisition_s"),
        (lambda: run_stability(preset_stability(), total_hours=math.nan), "total_hours"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), math.inf, 0.01), "lmax_km"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), math.nan, 0.01), "lmax_km"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), 250.0, math.inf), "step_km"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), 250.0, math.nan), "step_km"),
        (lambda: ScheduleSegment("HV", 0, math.nan), "duration_ps"),
        (lambda: ScheduleSegment("HV", 0, math.inf), "duration_ps"),
        (lambda: ScheduleSegment("HV", 0, 1e12), "duration_ps"),
        (lambda: SourceParams(pair_rate=math.nan), "pair_rate"),
        (lambda: SourceParams(pair_rate=math.inf), "pair_rate"),
        (lambda: LinkParams(dark_rate_cps=math.nan), "dark_rate_cps"),
        (lambda: LinkParams(jitter_sigma_ps=math.nan), "jitter_sigma_ps"),
        (lambda: LinkParams(fiber_length_km=math.inf), "fiber_length_km"),
        (lambda: tally_basis(_NO_TAGS, _NO_TAGS, window_ps=300, duration_s=math.nan), "duration_s"),
    ],
    ids=[
        "stability-hours-inf", "stability-hours-nan", "stability-switch-nan",
        "stability-acquisition-nan", "run_stability-hours-nan", "sweep-lmax-inf",
        "sweep-lmax-nan", "sweep-step-inf", "sweep-step-nan", "simulate-duration-nan",
        "simulate-duration-inf", "simulate-duration-float", "source-rate-nan", "source-rate-inf",
        "link-dark-nan", "link-jitter-nan", "link-length-inf", "tally-duration-nan",
    ],
)
def test_non_finite_argument_rejected_by_name(call, name):
    # the library API names the argument up front instead of failing in an
    # integer conversion or returning NaN figures
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()

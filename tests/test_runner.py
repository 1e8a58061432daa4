"""Unit tests for schedules, basis scans and the stability protocol."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from mcfqkd import runner
from mcfqkd.coincidence import count_coincidences, cross_correlation, find_peak_delay, tally_basis
from mcfqkd.config import preset_inner, preset_stability, selected_pairs
from mcfqkd.linkbudget import model_from_config, sweep_lengths
from mcfqkd.photonsim import (
    PS_PER_S,
    TAG_DTYPE,
    AnalyzerSetting,
    LinkParams,
    SourceParams,
    simulate_run,
)
from mcfqkd.qkdmath import positive_qber_threshold
from mcfqkd.runner import (
    MeasurementSchedule,
    ScheduleSegment,
    acquire,
    run_basis_scan,
    run_stability,
    scan_schedule,
    simulate_segment,
)


def quick_inner(acquisition_s=2.0, seed=42):
    cfg = preset_inner(seed=seed)
    cfg.schedule.acquisition_s = acquisition_s
    return cfg


class TestSchedules:
    def test_basis_scan_layout(self, monkeypatch):
        sched = scan_schedule(quick_inner(acquisition_s=60.0))
        assert len(sched.segments) == 2
        assert sched.segments[0].basis == "HV"
        assert sched.segments[1].start_ps == 60 * PS_PER_S
        assert sched.segments[1].start_ps + sched.segments[1].duration_ps == 120 * PS_PER_S
        # each segment is simulated at the pair rate scaled for its basis
        cfg = quick_inner()
        cfg.schedule.rate_scales = {"HV": 1.0, "DA": 0.99}
        rates = []
        monkeypatch.setattr(
            runner, "simulate_run", lambda source, *args, **kwargs: rates.append(source.pair_rate)
        )
        for idx, segment in enumerate(sched.segments):
            simulate_segment(cfg, selected_pairs(cfg)[0], segment, idx, 0.0)
        assert rates == [cfg.source.pair_rate, cfg.source.pair_rate * 0.99]

    def test_stability_slot_count(self):
        sched = MeasurementSchedule.stability(24.0, 30.0, 60.0)
        assert len(sched.segments) == 48
        bases = [seg.basis for seg in sched.segments]
        assert bases[:4] == ["HV", "DA", "HV", "DA"]

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ValueError, match=r"schedule\[1\]: start_ps must be >= 60"):
            MeasurementSchedule(
                (
                    ScheduleSegment("HV", 0, 60 * PS_PER_S),
                    ScheduleSegment("DA", 30 * PS_PER_S, 60 * PS_PER_S),
                )
            )

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule: has no segments"):
            MeasurementSchedule(())
        # a stability run shorter than half a slot has no slots
        with pytest.raises(ValueError, match="schedule: has no segments"):
            MeasurementSchedule.stability(0.2, 30.0, 60.0)

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            ScheduleSegment("XY", 0, 60 * PS_PER_S)
        with pytest.raises(ValueError):
            ScheduleSegment("HV", 0, 0)

    def test_acquisition_must_fit_slot(self):
        with pytest.raises(ValueError):
            MeasurementSchedule.stability(1.0, 1.0, 120.0)

    def test_slot_that_the_acquisition_fills_exactly(self):
        # slot starts are whole multiples of the slot in ps, so an
        # acquisition as long as its slot never overlaps the next one
        sched = MeasurementSchedule.stability(24.0, 13.37, 13.37 * 60.0)
        assert [seg.start_ps for seg in sched.segments[:2]] == [0, 802_200_000_000_000]
        assert sched.segments[0].duration_ps == 802_200_000_000_000


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
        cfg = preset_stability()
        pair = selected_pairs(cfg)[0]
        segment = MeasurementSchedule.stability(1.0, 30.0, 60.0).segments[0]
        streams = simulate_segment(cfg, pair, segment, 0, 0.3).streams[pair.pair_id]
        stream_bytes = streams.alice.nbytes + streams.bob.nbytes
        assert stream_bytes > 8 * 2**20
        del streams
        tracemalloc.start()
        try:
            acquire(cfg, pair, segment, 0, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * stream_bytes


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

    def test_segment_streams_and_match_indices(self):
        cfg = preset_inner(seed=42)
        pair = selected_pairs(cfg)[0]
        # starts 86,000 s in, so every time is far above 2**53 ps; the DA
        # segment runs at the unscaled pair rate
        cfg.schedule.rate_scales["DA"] = 1.0
        segment = ScheduleSegment("DA", 86_000 * PS_PER_S, 2 * PS_PER_S)
        streams = simulate_segment(cfg, pair, segment, 3, 0.5).streams[pair.pair_id]
        assert hashlib.sha256(streams.alice.tobytes()).hexdigest() == self.ALICE_SHA256
        assert hashlib.sha256(streams.bob.tobytes()).hexdigest() == self.BOB_SHA256

        t_a = streams.alice["time_ps"].astype(np.int64)
        t_b = streams.bob["time_ps"].astype(np.int64)
        delay = round(find_peak_delay(cross_correlation(t_a, t_b, 50, 5000)))
        pairs = count_coincidences(t_a, t_b, cfg.analysis.window_ps, delay_ps=delay)
        assert pairs.dtype == np.int64 and pairs.shape == (8430, 2)
        assert hashlib.sha256(pairs.tobytes()).hexdigest() == self.PAIRS_SHA256


def _simulate(duration_s):
    cfg = preset_inner()
    pair = selected_pairs(cfg)[0]
    return simulate_run(cfg.source, pair, cfg.link, AnalyzerSetting.hv(), duration_s, seed=1)


_NO_TAGS = np.zeros(0, dtype=TAG_DTYPE)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: MeasurementSchedule.stability(math.inf, 30.0, 60.0), "total_hours"),
        (lambda: MeasurementSchedule.stability(math.nan, 30.0, 60.0), "total_hours"),
        (lambda: MeasurementSchedule.stability(24.0, math.nan, 60.0), "switch_minutes"),
        (lambda: MeasurementSchedule.stability(24.0, 30.0, math.nan), "acquisition_s"),
        (lambda: run_stability(preset_stability(), total_hours=math.nan), "total_hours"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), math.inf, 0.01), "lmax_km"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), math.nan, 0.01), "lmax_km"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), 250.0, math.inf), "step_km"),
        (lambda: sweep_lengths(model_from_config(preset_inner()), 250.0, math.nan), "step_km"),
        (lambda: _simulate(math.nan), "duration_s"),
        (lambda: _simulate(math.inf), "duration_s"),
        (lambda: SourceParams(pair_rate=math.nan), "pair_rate"),
        (lambda: SourceParams(pair_rate=math.inf), "pair_rate"),
        (lambda: LinkParams(dark_rate_cps=math.nan), "dark_rate_cps"),
        (lambda: LinkParams(jitter_sigma_ps=math.nan), "jitter_sigma_ps"),
        (lambda: LinkParams(fiber_length_km=math.inf), "fiber_length_km"),
        (lambda: tally_basis(
            _NO_TAGS, _NO_TAGS, window_ps=300, duration_s=math.nan, accidental_offset_ps=6000
        ), "duration_s"),
    ],
    ids=[
        "stability-hours-inf", "stability-hours-nan", "stability-switch-nan",
        "stability-acquisition-nan", "run_stability-hours-nan", "sweep-lmax-inf",
        "sweep-lmax-nan", "sweep-step-inf", "sweep-step-nan", "simulate-duration-nan",
        "simulate-duration-inf", "source-rate-nan", "source-rate-inf", "link-dark-nan",
        "link-jitter-nan", "link-length-inf", "tally-duration-nan",
    ],
)
def test_non_finite_argument_rejected_by_name(call, name):
    # the library API names the argument up front instead of failing in an
    # integer conversion or returning NaN figures
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()

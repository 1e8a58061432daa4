"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them inline).  Stated runtimes are asserted inside the tests.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from mcfqkd.cli import main
from mcfqkd.config import (
    dump_config,
    preset_inner,
    preset_outer,
    preset_stability,
)
from mcfqkd.coincidence import count_coincidences, cross_correlation
from mcfqkd.geometry import build_layout
from mcfqkd.linkbudget import keyrate_at_length, max_positive_length, model_from_config
from mcfqkd.photonsim import (
    AnalyzerSetting,
    LinkParams,
    SourceParams,
    joint_outcome_probs,
    simulate_run,
)
from mcfqkd.qkdmath import (
    BasisCounts,
    KeyRateInputs,
    binary_entropy,
    positive_qber_threshold,
    qber_from_visibility,
    secret_key_rate,
    visibility_from_counts,
)
from mcfqkd.runner import run_basis_scan, run_stability
from mcfqkd.coincidence import tally_basis
from oracles import (
    entropy_oracle,
    greedy_match_oracle,
    histogram_oracle,
    key_rate_oracle,
    qber_threshold_oracle,
    visibility_oracle,
)


@contextmanager
def check(number: int, summary: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE CRITERION {number}: FAIL - {summary}", flush=True)
        raise
    print(f"\nACCEPTANCE CRITERION {number}: PASS - {summary}", flush=True)


def test_criterion_1_formula_oracle_suite():
    with check(1, "formulas match the arbitrary-precision oracle to 1e-12 on 1e4 inputs in < 5 s"):
        rng = np.random.default_rng(2024)
        # the bound is on the formulas under test, summed over their calls; the
        # Decimal oracles' time follows the host and is not bounded
        spent = 0.0

        def timed(formula, *args, **kwargs):
            nonlocal spent
            t0 = time.perf_counter()
            out = formula(*args, **kwargs)
            spent += time.perf_counter() - t0
            return out

        xs = np.concatenate(
            [
                rng.uniform(0.0, 1.0, 6000),
                10.0 ** rng.uniform(-14.0, -0.31, 2000),
                1.0 - 10.0 ** rng.uniform(-14.0, -0.31, 2000),
            ]
        )
        for x in xs:
            expected = entropy_oracle(float(x))
            got = timed(binary_entropy, float(x))
            if expected == 0:
                assert got == 0.0
            else:
                assert abs(got - float(expected)) <= 1e-12 * float(abs(expected))

        counts = rng.integers(0, 10**6, size=(10_000, 4))
        counts[0] = (1, 0, 0, 0)
        for row in counts:
            c = BasisCounts(*(int(v) for v in row))
            if c.total == 0:
                continue
            expected_v = visibility_oracle(c.c_pp, c.c_pm, c.c_mp, c.c_mm)
            got_v = timed(visibility_from_counts, c)
            assert got_v == float(expected_v)  # both correctly rounded
            got_q = timed(qber_from_visibility, timed(visibility_from_counts, c, exact=True))
            assert got_q == (1 - expected_v) / 2

        for _ in range(10_000):
            c_hv, c_da = rng.uniform(0, 1e5), rng.uniform(0, 1e5)
            q_hv, q_da = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
            f = rng.uniform(0, 2)
            got = timed(secret_key_rate, KeyRateInputs(c_hv, c_da, q_hv, q_da, ec_efficiency=f))
            expected = float(key_rate_oracle(c_hv, c_da, q_hv, q_da, f))
            # relative to the input scale: the rate itself crosses zero
            assert abs(got - expected) <= 1e-12 * (c_hv + c_da) + 1e-9

        assert spent < 5.0, f"formulas under test took {spent:.2f} s"


def test_criterion_2_qber_visibility_identity():
    with check(2, "Q=(1-V)/2 equals error/total exactly on 1e5 random count tuples"):
        rng = np.random.default_rng(7)
        totals = rng.integers(1, 10_001, size=100_000)
        splits = rng.random((100_000, 3))
        for total, u in zip(totals, splits):
            total = int(total)
            b = int(u[0] * (total + 1))
            c = int(u[1] * (total - b + 1))
            a = int(u[2] * (total - b - c + 1))
            d = total - a - b - c
            counts = BasisCounts(a, b, c, d)
            q = qber_from_visibility(visibility_from_counts(counts, exact=True))
            assert q == Fraction(counts.error_counts, counts.total)


def test_criterion_3_threshold_reproduction():
    with check(3, "per-basis factor crosses zero at Q=0.110 (f=1) and Q=0.0963 (f=1.2), both +-0.001"):
        q_f1 = positive_qber_threshold(1.0)
        q_f12 = positive_qber_threshold(1.2)
        assert abs(q_f1 - 0.110) <= 0.001
        assert abs(q_f12 - 0.0963) <= 0.001
        # independent root-find on the decimal oracle
        assert abs(q_f1 - float(qber_threshold_oracle(1.0))) <= 1e-9
        assert abs(q_f12 - float(qber_threshold_oracle(1.2))) <= 1e-9
        for f, q_star in ((1.0, q_f1), (1.2, q_f12)):
            below = secret_key_rate(
                KeyRateInputs(1000.0, 1000.0, q_star - 1e-3, q_star - 1e-3, ec_efficiency=f)
            )
            above = secret_key_rate(
                KeyRateInputs(1000.0, 1000.0, q_star + 1e-3, q_star + 1e-3, ec_efficiency=f)
            )
            assert below > 0 > above


def test_criterion_4_coincidence_engine_equivalence():
    with check(4, "matching and correlation equal O(n^2) oracles exactly on 1000 instances in < 30 s"):
        rng = np.random.default_rng(11)
        t0 = time.perf_counter()
        for i in range(1000):
            n_a = int(rng.integers(0, 1001))
            n_b = int(rng.integers(0, 1001))
            span = int(rng.integers(500, 10 ** int(rng.integers(4, 8))))
            a = np.sort(rng.integers(0, span, n_a))
            b = np.sort(rng.integers(0, span, n_b))
            window = int(rng.integers(1, 5001))
            delay = int(rng.integers(-2000, 2001))

            got = count_coincidences(a, b, window, delay_ps=delay).tolist()
            expected = [list(p) for p in greedy_match_oracle(a, b, window, delay)]
            assert got == expected, f"instance {i}"

            bin_width = int(rng.integers(1, 200))
            hist_range = bin_width * int(rng.integers(1, 50))
            hist = cross_correlation(a, b, bin_width, hist_range)
            np.testing.assert_array_equal(
                hist.bins, histogram_oracle(a, b, bin_width, hist_range)
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"equivalence suite took {elapsed:.2f} s"


def _noise_free_channel():
    from dataclasses import replace

    layout = build_layout()
    pair = replace(layout.pairs[0], coupling_prob=1.0)
    link = LinkParams(
        fiber_length_km=0.0,
        system_loss_db=0.0,
        detector_efficiency=1.0,
        dark_rate_cps=0.0,
        jitter_sigma_ps=0.0,
        crosstalk_prob=0.0,
    )
    return pair, link


def test_criterion_5_quantum_correlation_statistics():
    with check(5, "1e5-pair fractions match (1 +- cos 2d)/4 within 3 sigma; V=0.94 recovered +-0.01"):
        channel = _noise_free_channel()
        source = SourceParams(pair_rate=100_000, visibility=1.0)
        for k, delta in enumerate((0.0, 22.5, 45.0, 67.5, 90.0)):
            res = simulate_run(
                source, *channel, AnalyzerSetting(0.0), 1.0, seed=600 + k, angle_offset_deg=delta
            )
            tally = tally_basis(
                res.streams[0].alice,
                res.streams[0].bob,
                window_ps=300,
                duration_s=1.0,
                accidental_offset_ps=6000,
            )
            n = tally.counts.total
            assert n == res.truth.pairs[0].true_coincidences  # lossless, noiseless
            expected = joint_outcome_probs(0.0, delta, 1.0)
            observed = (
                tally.counts.c_pp,
                tally.counts.c_pm,
                tally.counts.c_mp,
                tally.counts.c_mm,
            )
            for p, obs in zip(expected, observed):
                if p == 0.0:
                    assert obs == 0, f"delta={delta}"
                else:
                    sigma = np.sqrt(n * p * (1 - p))
                    assert abs(obs - n * p) <= 3 * sigma + 1, f"delta={delta}"

        source = SourceParams(pair_rate=100_000, visibility=0.94)
        for setting, seed in ((AnalyzerSetting.hv(), 701), (AnalyzerSetting.da(), 702)):
            res = simulate_run(source, *channel, setting, 1.0, seed=seed)
            tally = tally_basis(
                res.streams[0].alice,
                res.streams[0].bob,
                window_ps=300,
                duration_s=1.0,
                accidental_offset_ps=6000,
            )
            v = visibility_from_counts(tally.counts)
            assert abs(v - 0.94) <= 0.01


def test_criterion_6_outer_ring_anchor():
    with check(6, "outer ring totals 25-45 kbit/s at 7832/7770 cps and ~3% QBER; outer/inner ratio in 4.7 +- 1.0"):
        outer_cfg = preset_outer()
        outer_cfg.schedule.acquisition_s = 10.0
        # the calibration setpoint itself must sit in the stated QBER band
        q_setpoint = (1.0 - outer_cfg.source.visibility) / 2.0
        assert 0.027 <= q_setpoint <= 0.035
        outer = run_basis_scan(outer_cfg)
        measured_qbers = []
        for pair in outer.pairs:
            assert pair.hv.coincidence_rate_cps == pytest.approx(7832.0, rel=0.06)
            assert pair.da.coincidence_rate_cps == pytest.approx(7770.0, rel=0.06)
            # each acquisition scatters around the setpoint by ~0.0006 (1 sigma)
            assert pair.hv.qber == pytest.approx(q_setpoint, abs=0.003)
            assert pair.da.qber == pytest.approx(q_setpoint, abs=0.003)
            measured_qbers += [pair.hv.qber, pair.da.qber]
        assert 0.027 <= float(np.mean(measured_qbers)) <= 0.035
        assert 25_000.0 <= outer.total_bits_s <= 45_000.0

        inner_cfg = preset_inner()
        inner_cfg.schedule.acquisition_s = 10.0
        inner = run_basis_scan(inner_cfg)
        ratio = outer.total_bits_s / inner.total_bits_s
        assert 4.7 - 1.0 <= ratio <= 4.7 + 1.0, f"ratio {ratio:.2f}"


def test_criterion_7_distance_limits():
    with check(7, "calibrated max positive lengths in [150, 220] km; clamped rate monotone to 250 km"):
        lengths = {}
        for name, cfg in (("inner", preset_inner()), ("outer", preset_outer())):
            model = model_from_config(cfg)
            reach = max_positive_length(model)
            assert 150.0 <= reach <= 220.0, f"{name}: {reach:.1f} km"
            lengths[name] = reach

            prev_pair = np.inf
            prev_ring = np.inf
            crossed = False
            for km in range(0, 251):
                point = keyrate_at_length(model, float(km))
                clamped = max(0.0, point.skr_pair_bits_s)
                assert clamped <= prev_pair + 1e-9
                assert point.skr_ring_bits_s <= prev_ring + 1e-9
                if crossed:  # raw rate may creep toward zero but never recovers
                    assert point.skr_pair_bits_s <= 0.0
                crossed = crossed or point.skr_pair_bits_s <= 0.0
                prev_pair, prev_ring = clamped, point.skr_ring_bits_s
        assert lengths["inner"] < lengths["outer"]


def test_criterion_8_stability_protocol():
    with check(8, "24 h run yields 48 points, QBER mean in [2.5, 3.5]%, key rate mean in [2.0, 2.6] kbit/s"):
        points = run_stability(
            preset_stability(), total_hours=24.0, switch_minutes=30.0, acquisition_s=60.0
        )
        assert len(points) == 48
        qbers = np.array([p.qber for p in points], dtype=float)
        rates = np.array([p.skr_bits_s for p in points], dtype=float)
        assert 0.025 <= qbers.mean() <= 0.035, f"QBER mean {qbers.mean():.4f}"
        assert 2000.0 <= rates.mean() <= 2600.0, f"rate mean {rates.mean():.0f}"
        assert np.all(np.abs([p.drift_offset_deg for p in points]) <= 3.0)


def test_criterion_9_determinism_and_formats(tmp_path):
    with check(9, "seeded runs byte-identical, timetag files round-trip, default 1e6-pair pipeline < 10 s"):
        # bit-exact reruns of a seeded simulation
        cfg = preset_inner()
        cfg.schedule.acquisition_s = 2.0
        cfg_path = tmp_path / "quick.json"
        dump_config(cfg, cfg_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for p1 in sorted(out1.iterdir()):
            assert p1.read_bytes() == (out2 / p1.name).read_bytes(), p1.name

        # timetag round-trip is bit-exact
        from mcfqkd.tagio import read_timetags, write_timetags

        tags, channel = read_timetags(out1 / "pair0_alice.mcqt")
        copy_path = tmp_path / "copy.mcqt"
        write_timetags(copy_path, tags, channel)
        assert copy_path.read_bytes() == (out1 / "pair0_alice.mcqt").read_bytes()

        # full default pipeline: simulate + analyze the inner ring at the
        # configured 60 s acquisitions (over 1e6 generated pairs)
        default_cfg = preset_inner()
        default_path = tmp_path / "default.json"
        dump_config(default_cfg, default_path)
        sim_dir, rep_dir = tmp_path / "sim", tmp_path / "rep"
        t0 = time.perf_counter()
        assert main(["simulate", "--config", str(default_path), "--out", str(sim_dir)]) == 0
        assert main(["analyze", "--in", str(sim_dir), "--out", str(rep_dir)]) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"pipeline took {elapsed:.2f} s"

        meta = json.loads((sim_dir / "ground_truth.json").read_text())
        materialized = sum(
            entry["emitted"] for entry in meta["truth"]["per_pair"].values()
        )
        assert materialized >= 1_000_000

        report = json.loads((rep_dir / "report.json").read_text())
        assert report["total_bits_s"] == pytest.approx(7300.0, rel=0.05)

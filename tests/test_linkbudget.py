"""Unit tests for the key-rate-versus-length extrapolation."""

import math

import pytest

from mcfqkd.config import preset_inner, preset_outer
from mcfqkd.linkbudget import (
    LinkModel,
    NoPositiveRateError,
    keyrate_at_length,
    max_positive_length,
    model_from_config,
    sweep_lengths,
)


def simple_model(**overrides):
    params = dict(
        c_true_hv=4000.0,
        c_true_da=4000.0,
        q_int_hv=0.03,
        q_int_da=0.03,
        s_photon=4.0e5,
        dark_rate_cps=100.0,
        window_ps=300.0,
        pairs_in_ring=3,
    )
    params.update(overrides)
    return LinkModel(**params)


class TestKeyrateAtLength:
    def test_reference_point_uses_baseline(self):
        model = simple_model()
        point = keyrate_at_length(model, model.reference_length_km)
        acc = (4.0e5 + 200.0) ** 2 * 300e-12
        assert point.coin_rate_cps == pytest.approx(4000.0 + acc)
        assert point.skr_ring_bits_s == pytest.approx(3 * max(0.0, point.skr_pair_bits_s))

    def test_coincidence_scaling_50km(self):
        # two arms, 0.2 dB/km each: coincidences scale by 10^(-2*0.2*50/10)
        model = simple_model(dark_rate_cps=0.0, s_photon=4000.0)
        ref = keyrate_at_length(model, model.reference_length_km)
        far = keyrate_at_length(model, model.reference_length_km + 50.0)
        acc_free_ref = ref.coin_rate_cps
        assert far.coin_rate_cps / acc_free_ref == pytest.approx(0.01, rel=1e-3)

    def test_qber_constant_without_noise(self):
        model = simple_model(dark_rate_cps=0.0, s_photon=4000.0)
        # singles equal to coincidences and no darks: accidentals are tiny
        qbers = [keyrate_at_length(model, L).qber for L in (0.411, 50, 100, 200)]
        for q in qbers:
            assert q == pytest.approx(0.03, abs=1e-4)

    def test_qber_approaches_half_with_darks(self):
        model = simple_model()
        assert keyrate_at_length(model, 500.0).qber == pytest.approx(0.5, abs=1e-4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            keyrate_at_length(simple_model(), -1.0)

    def test_monotone_clamped_rate_on_dense_grid(self):
        model = simple_model()
        prev = math.inf
        for i in range(0, 2500):
            point = keyrate_at_length(model, 0.1 * i)
            clamped = max(0.0, point.skr_pair_bits_s)
            assert clamped <= prev + 1e-9
            prev = clamped


class TestSweep:
    def test_grid_covers_range(self):
        model = simple_model()
        points = sweep_lengths(model, 10.0, 1.0)
        assert points[0].length_km == 0.0
        assert points[-1].length_km == 10.0
        assert len(points) == 11

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep_lengths(simple_model(), 10.0, 0.0)
        with pytest.raises(ValueError):
            sweep_lengths(simple_model(), 0.2, 1.0)  # below the reference length


class TestMaxPositiveLength:
    def test_no_noise_returns_infinity(self):
        model = simple_model(
            dark_rate_cps=0.0, q_int_hv=0.0, q_int_da=0.0,
            s_photon=4000.0,
        )
        assert max_positive_length(model) == math.inf

    def test_doubled_darks_shorten_reach(self):
        base = max_positive_length(simple_model())
        doubled = max_positive_length(simple_model(dark_rate_cps=200.0))
        assert doubled < base

    def test_non_positive_baseline_rejected(self):
        model = simple_model(q_int_hv=0.12, q_int_da=0.12)
        with pytest.raises(NoPositiveRateError):
            max_positive_length(model)

    def test_bisection_tolerance(self):
        model = simple_model()
        length = max_positive_length(model, tolerance_km=0.1)
        assert keyrate_at_length(model, length - 0.2).skr_pair_bits_s > 0
        assert keyrate_at_length(model, length + 0.2).skr_pair_bits_s < 0


class TestCalibratedModels:
    def test_inner_limit_near_reference_distance(self):
        model = model_from_config(preset_inner())
        length = max_positive_length(model)
        assert 150.0 <= length <= 220.0
        assert abs(length - 180.0) / 180.0 <= 0.15

    def test_outer_limit_in_bracket(self):
        model = model_from_config(preset_outer())
        length = max_positive_length(model)
        assert 150.0 <= length <= 220.0

    def test_inner_baseline_totals(self):
        model = model_from_config(preset_inner())
        point = keyrate_at_length(model, model.reference_length_km)
        assert point.skr_ring_bits_s == pytest.approx(7300.0, rel=0.01)

    def test_outer_baseline_totals(self):
        model = model_from_config(preset_outer())
        point = keyrate_at_length(model, model.reference_length_km)
        assert 25_000.0 <= point.skr_ring_bits_s <= 45_000.0

    def test_inner_limit_below_outer(self):
        inner = max_positive_length(model_from_config(preset_inner()))
        outer = max_positive_length(model_from_config(preset_outer()))
        assert inner < outer


class TestFromReference:
    def test_roundtrip_reproduces_measured_baseline(self):
        model = LinkModel.from_reference(
            c_meas_hv=4263.0,
            c_meas_da=4241.0,
            q_meas_hv=0.031,
            q_meas_da=0.029,
            arm_loss_db=20.03,
            dark_rate_cps=100.0,
            window_ps=300.0,
            pairs_in_ring=3,
        )
        point = keyrate_at_length(model, model.reference_length_km)
        from mcfqkd.qkdmath import KeyRateInputs, secret_key_rate

        expected = secret_key_rate(KeyRateInputs(4263.0, 4241.0, 0.031, 0.029))
        assert point.skr_pair_bits_s == pytest.approx(expected, rel=1e-9)
        assert point.qber == pytest.approx(0.5 * (0.031 + 0.029), rel=1e-9)

    def test_intrinsic_qber_below_measured(self):
        model = LinkModel.from_reference(
            c_meas_hv=4263.0,
            c_meas_da=4241.0,
            q_meas_hv=0.03,
            q_meas_da=0.03,
            arm_loss_db=20.03,
            dark_rate_cps=100.0,
            window_ps=300.0,
            pairs_in_ring=3,
        )
        assert model.q_int_hv < 0.03
        assert model.c_true_hv < 4263.0

    def test_inconsistent_singles_rejected(self):
        with pytest.raises(ValueError):
            simple_model(s_photon=1000.0)  # singles below the coincidence rate

    def test_consistent_with_runner_baseline(self):
        # a model built from a measured report reproduces that report's key
        # rate when evaluated back at the reference length
        from mcfqkd.runner import run_basis_scan

        cfg = preset_inner()
        cfg.schedule.acquisition_s = 2.0
        report = run_basis_scan(cfg, pair_ids=[0])
        pair = report.pairs[0]
        model = LinkModel.from_reference(
            c_meas_hv=pair.hv.coincidence_rate_cps,
            c_meas_da=pair.da.coincidence_rate_cps,
            q_meas_hv=pair.hv.qber,
            q_meas_da=pair.da.qber,
            arm_loss_db=cfg.linkbudget.ring_loss_db / 2.0,
            dark_rate_cps=cfg.link.dark_rate_cps,
            window_ps=cfg.analysis.window_ps,
            pairs_in_ring=1,
            ec_efficiency=report.ec_efficiency,
        )
        point = keyrate_at_length(model, model.reference_length_km)
        assert point.skr_pair_bits_s == pytest.approx(pair.skr_bits_s, rel=1e-9)

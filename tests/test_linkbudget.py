"""Unit tests for the key-rate-versus-length extrapolation."""

import math
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from mcfqkd.cli import LINKBUDGET_COLUMNS, _write_csv
from mcfqkd.config import preset_inner, preset_outer
from mcfqkd.linkbudget import (
    LengthPoint,
    LinkModel,
    NoPositiveRateError,
    keyrate_at_length,
    max_positive_length,
    model_from_config,
    sweep_lengths,
)
from oracles import length_grid_oracle, link_point_oracle, reach_oracle


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

    def test_nan_length_rejected(self):
        with pytest.raises(ValueError, match="^length_km must be >= 0, got nan$"):
            keyrate_at_length(simple_model(), math.nan)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -0.5], ids=str)
    def test_bad_efficiency_rejected_by_name(self, f):
        # the model checked no efficiency: a NaN made every key rate NaN
        with pytest.raises(ValueError, match=rf"^ec_efficiency must be finite and >= 0, got {f}$"):
            simple_model(ec_efficiency=f)

    def test_overflowing_transmission_names_the_model(self):
        # a reference 2,000 km out at 2 dB/km puts 10**400 at 0 km: the
        # error names the length and the two terms, at a point and on a grid
        model = simple_model(reference_length_km=2000.0, fiber_loss_db_per_km=2.0)
        message = (
            "^transmission overflows at length_km 0.0: "
            "reference_length_km 2000.0, fiber_loss_db_per_km 2.0$"
        )
        with pytest.raises(ValueError, match=message):
            keyrate_at_length(model, 0.0)
        with pytest.raises(ValueError, match=message):
            sweep_lengths(model, 2000.0, 1.0)
        # lengths whose transmission fits still evaluate
        assert keyrate_at_length(model, 1900.0).coin_rate_cps > keyrate_at_length(model, 2000.0).coin_rate_cps

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

    def test_lengths_are_floats(self, tmp_path):
        # an int grid gives float lengths too, which the CSV writes as floats
        points = sweep_lengths(simple_model(), 3, 1)
        assert [p.length_km for p in points] == [0.0, 1.0, 2.0, 3.0]
        assert all(type(p.length_km) is float for p in points)
        assert type(keyrate_at_length(simple_model(), 3).length_km) is float
        assert points[3] == keyrate_at_length(simple_model(), 3)
        path = tmp_path / "curve.csv"
        _write_csv(path, LINKBUDGET_COLUMNS, points)
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "1.0", "2.0", "3.0"]


def packed(rows):
    return np.array(rows, dtype=np.float64).tobytes()


class TestCurveOracle:
    """The swept curve against the scalar oracle, bit for bit, on all five
    fields, both as its columns and as the points it iterates."""

    @staticmethod
    def assert_columns(curve, want):
        columns = curve.columns()
        assert len(columns) == len(fields(LengthPoint))
        for column, field in zip(columns, fields(LengthPoint)):
            assert column is getattr(curve, field.name)
            assert column.dtype == np.float64 and column.shape == (len(want),)
        assert np.column_stack(columns).tobytes() == packed(want)

    @pytest.mark.parametrize("ring", ["inner", "outer"])
    @pytest.mark.parametrize("lmax_km, step_km", [(250.0, 0.01), (250.0, 1.0)], ids=["bench", "fig2"])
    def test_presets(self, ring, lmax_km, step_km):
        model = model_from_config(preset_inner() if ring == "inner" else preset_outer())
        points = sweep_lengths(model, lmax_km, step_km)
        assert len(points) == round(lmax_km / step_km) + 1
        want = [link_point_oracle(model, km) for km in length_grid_oracle(lmax_km, step_km)]
        self.assert_columns(points, want)
        assert packed([astuple(p) for p in points]) == packed(want)

    @pytest.mark.parametrize(
        "overrides, lmax_km, step_km",
        [
            # without darks the transmission underflows near 16,200 km: no coincidence left
            (dict(dark_rate_cps=0.0, s_photon=4000.0), 20_000.0, 50.0),
            (dict(fiber_loss_db_per_km=0.0), 250.0, 1.0),
            (dict(ec_efficiency=0.0), 250.0, 1.0),
            ({}, 0.5, 0.07),  # 0, 0.07, ..., 0.49, then 0.5 appended
        ],
        ids=["no-darks-underflow", "lossless", "ec-efficiency-0", "appended-last-point"],
    )
    def test_edge_models(self, overrides, lmax_km, step_km):
        model = simple_model(**overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the no-coincidence lengths divide nothing
            points = sweep_lengths(model, lmax_km, step_km)
        want = [link_point_oracle(model, km) for km in length_grid_oracle(lmax_km, step_km)]
        self.assert_columns(points, want)
        assert packed([astuple(p) for p in points]) == packed(want)
        if not overrides:
            assert [p.length_km for p in points][-2:] == [7 * 0.07, 0.5]
            # a point, iterated or indexed, is the scalar evaluation at its length
            scalar = [keyrate_at_length(model, km) for km in length_grid_oracle(lmax_km, step_km)]
            assert list(points) == scalar
            assert [points[i] for i in range(len(points))] == scalar
            assert points[-1] == scalar[-1]
        if "dark_rate_cps" in overrides:
            assert points[-1].coin_rate_cps == 0.0 and points[-1].qber == 0.5
            assert points[0].coin_rate_cps > 0.0


def test_float_power_is_libm_pow():
    # the curve's transmission is np.float_power, one libm pow per element:
    # a numpy that vectorizes it, as np.power is, would move the curve's bits
    grid = np.array(length_grid_oracle(250.0, 0.01))
    exponents = [np.random.default_rng(31).uniform(-60.0, 1.0, 10**5)]
    for cfg in (preset_inner(), preset_outer()):
        model = model_from_config(cfg)
        exponents.append(-model.fiber_loss_db_per_km * (grid - model.reference_length_km) / 10.0)
    exponents = np.concatenate(exponents)
    got = np.float_power(10.0, exponents)
    assert got.tobytes() == np.array([math.pow(10.0, x) for x in exponents.tolist()]).tobytes()


class TestMaxPositiveLength:
    @pytest.mark.parametrize("tolerance_km", [1.0, 0.1, 1e-6, 1e-300])
    @pytest.mark.parametrize("name", ["inner", "outer", "simple"])
    def test_reach_oracle_bit_for_bit(self, name, tolerance_km):
        # six bisection levels an evaluation reach the float that one length
        # at a time reaches, down to a bracket of two adjacent floats
        cfgs = {"inner": preset_inner, "outer": preset_outer}
        model = model_from_config(cfgs[name]()) if name in cfgs else simple_model()
        assert max_positive_length(model, tolerance_km) == reach_oracle(model, tolerance_km)

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

    @pytest.mark.parametrize("tolerance_km", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tolerance_km):
        # 0 and -1 would bisect forever once the bracket holds two adjacent floats
        with pytest.raises(ValueError, match=f"^tolerance_km must be finite and > 0, got {tolerance_km}$"):
            max_positive_length(simple_model(), tolerance_km)

    def test_tolerance_below_the_float_spacing_ends(self):
        model = simple_model()
        length = max_positive_length(model, tolerance_km=1e-300)
        assert length == pytest.approx(max_positive_length(model), abs=0.1)
        # the bracket ends as two adjacent floats, and the midpoint rounds to one of them
        assert keyrate_at_length(model, math.nextafter(length, 0.0)).skr_pair_bits_s > 0
        assert keyrate_at_length(model, math.nextafter(length, math.inf)).skr_pair_bits_s <= 0

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

    def test_zero_fiber_loss_is_honoured(self):
        # a lossless fiber: no rate depends on the length, so the key rate is
        # flat and never crosses zero
        cfg = preset_inner()
        cfg.link = replace(cfg.link, fiber_loss_db_per_km=0.0)
        model = model_from_config(cfg)
        assert model.fiber_loss_db_per_km == 0.0
        rates = {keyrate_at_length(model, km).skr_pair_bits_s for km in (0.0, 0.411, 50.0, 250.0, 1e4)}
        assert len(rates) == 1 and rates.pop() > 0
        assert max_positive_length(model) == math.inf


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
        cfg.pairs = [0]
        report = run_basis_scan(cfg)
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

"""Unit tests for configuration parsing, validation and presets."""

import json
import math
import re
from typing import Tuple

import pytest

from mcfqkd.config import (
    ConfigError,
    LayoutConfig,
    coerce,
    dumps_config,
    loads_config,
    preset,
    preset_inner,
    preset_outer,
    preset_stability,
    selected_pairs,
    window_capture_fraction,
    worker_count,
)

MINIMAL = {"source": {"pair_rate": 1000.0}}


class TestParsing:
    def test_minimal_config(self):
        cfg = loads_config(json.dumps(MINIMAL))
        assert cfg.source.pair_rate == 1000.0
        assert cfg.ring == "inner"
        assert cfg.analysis.window_ps == 300

    def test_round_trip_idempotent(self):
        cfg = preset_outer()
        text = dumps_config(cfg)
        again = dumps_config(loads_config(text))
        assert text == again

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="detector_model: unknown key"):
            loads_config(json.dumps({**MINIMAL, "detector_model": 1}))

    def test_unknown_nested_key_reports_path(self):
        bad = {"source": {"pair_rate": 1.0, "brightness": 2.0}}
        with pytest.raises(ConfigError, match="source.brightness: unknown key"):
            loads_config(json.dumps(bad))

    def test_type_errors_report_path(self):
        bad = {"source": {"pair_rate": "fast"}}
        with pytest.raises(ConfigError, match="source.pair_rate"):
            loads_config(json.dumps(bad))
        bad = {"source": {"pair_rate": 1.0}, "analysis": {"window_ps": 0.5}}
        with pytest.raises(ConfigError, match="analysis.window_ps"):
            loads_config(json.dumps(bad))

    def test_missing_required_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"^source: missing key$"):
            loads_config("{}")
        with pytest.raises(ConfigError, match=r"^source\.pair_rate: missing key$"):
            loads_config(json.dumps({"source": {"visibility": 0.9}}))

    def test_tuple_of_dataclasses(self):
        parsed = coerce([{"pitch_um": 30.0}], Tuple[LayoutConfig, ...], "layouts")
        assert parsed == (LayoutConfig(pitch_um=30.0),)
        with pytest.raises(ConfigError, match=r"^layouts\[0\]\.pitch_um: expected a number"):
            coerce([{"pitch_um": "wide"}], Tuple[LayoutConfig, ...], "layouts")
        with pytest.raises(ConfigError, match="^layouts: expected a list"):
            coerce({}, Tuple[LayoutConfig, ...], "layouts")

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            loads_config("{nope")

    def test_semantic_validation(self):
        with pytest.raises(ConfigError, match="ring"):
            loads_config(json.dumps({**MINIMAL, "ring": "middle"}))
        with pytest.raises(ConfigError, match="pairs"):
            loads_config(json.dumps({**MINIMAL, "pairs": [0, 12]}))
        with pytest.raises(ConfigError, match="seed"):
            loads_config(json.dumps({**MINIMAL, "seed": -1}))

    @pytest.mark.parametrize("seed", [2**32, 2**32 + 5, 2**64])
    def test_seed_beyond_one_uint32_word_rejected(self, seed):
        # the seed is one 32-bit entropy word of every stream's SeedSequence,
        # which would split 2**32 + 5 into the words of another seed's stream
        with pytest.raises(ConfigError, match=rf"^seed: must be >= 0 and < 2\*\*32, got {seed}$"):
            loads_config(json.dumps({**MINIMAL, "seed": seed}))
        assert loads_config(json.dumps({**MINIMAL, "seed": 2**32 - 1})).seed == 2**32 - 1

    def test_file_round_trip(self, tmp_path):
        from mcfqkd.config import dump_config, load_config

        cfg = preset_stability()
        path = tmp_path / "run.json"
        dump_config(cfg, path)
        assert dumps_config(load_config(path)) == dumps_config(cfg)


class TestPresets:
    def test_inner_preset_hits_target_rate(self):
        cfg = preset_inner()
        pairs = selected_pairs(cfg)
        assert len(pairs) == 3
        t = cfg.link.transmission
        eta = window_capture_fraction(cfg.analysis.window_ps, cfg.link.jitter_sigma_ps)
        keep = (1 - cfg.link.crosstalk_prob) ** 2
        mean_rate = (
            cfg.source.pair_rate
            * sum(p.coupling_prob for p in pairs)
            * t
            * t
            * eta
            * keep
            / len(pairs)
        )
        assert mean_rate == pytest.approx(4262.6, rel=1e-9)

    def test_outer_preset_hits_target_rate(self):
        cfg = preset_outer()
        pairs = selected_pairs(cfg)
        assert len(pairs) == 6
        t = cfg.link.transmission
        eta = window_capture_fraction(cfg.analysis.window_ps, cfg.link.jitter_sigma_ps)
        keep = (1 - cfg.link.crosstalk_prob) ** 2
        total = cfg.source.pair_rate * sum(p.coupling_prob for p in pairs) * t * t * eta * keep
        assert total == pytest.approx(6 * 7832.0, rel=1e-9)
        assert cfg.schedule.rate_scales["DA"] == pytest.approx(7770.0 / 7832.0)

    def test_stability_preset_is_single_pair_with_drift(self):
        cfg = preset_stability()
        assert cfg.pairs == [0]
        assert cfg.drift.rate_deg_per_hour > 0

    def test_preset_lookup(self):
        assert preset("inner").ring == "inner"
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("nope")

    def test_explicit_empty_pairs_rejected(self):
        cfg = preset_inner()
        cfg.pairs = []
        with pytest.raises(ConfigError, match="empty pair set"):
            selected_pairs(cfg)


class TestWorkerCount:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("MCFQKD_THREADS", "2")
        assert worker_count(8) == 2
        assert worker_count(1) == 1

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("MCFQKD_THREADS", "many")
        with pytest.raises(ConfigError):
            worker_count(4)
        monkeypatch.setenv("MCFQKD_THREADS", "0")
        with pytest.raises(ConfigError):
            worker_count(4)

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("MCFQKD_THREADS", raising=False)
        assert worker_count(4) >= 1


def _with(section, key, value):
    data = json.loads(dumps_config(preset_inner()))
    data[section][key] = value
    return data


def _with_top(key, value, **more):
    return {**json.loads(dumps_config(preset_inner())), key: value, **more}


@pytest.mark.parametrize(
    "data, path",
    [
        (_with("source", "pair_rate", math.nan), "source.pair_rate"),
        (_with("source", "pair_rate", 0.0), "source: pair_rate"),
        (_with("source", "visibility", 1.5), "source: visibility"),
        (_with("link", "detector_efficiency", 0.0), "link: detector_efficiency"),
        (_with("link", "crosstalk_prob", 1.0), "link: crosstalk_prob"),
        (_with("link", "jitter_sigma_ps", -1.0), "link: jitter_sigma_ps"),
        (_with("link", "fiber_length_km", -1.0), "link: fiber_length_km"),
        (_with("link", "dark_rate_cps", math.inf), "link.dark_rate_cps"),
        (_with("analysis", "accidental_offset_windows", math.nan), "analysis.accidental_offset_windows"),
        (_with("analysis", "hist_bin_ps", 0), "analysis.hist_bin_ps"),
        (_with("analysis", "hist_range_ps", -5000), "analysis.hist_range_ps"),
        (_with("schedule", "bases", []), "schedule.bases"),
        (_with("schedule", "bases", ["HV", "HV"]), "schedule.bases"),
        (_with("schedule", "rate_scales", {"HV": 1.0, "XY": 1.0}), "schedule.rate_scales.XY"),
        (_with("schedule", "rate_scales", {"HV": 1.0, "DA": 0.0}), "schedule.rate_scales.DA"),
        (_with("keyrate", "ec_efficiency", 10**400), "keyrate.ec_efficiency"),
        # the histogram grid: +-range in whole bins, at least one
        (_with("analysis", "hist_bin_ps", 30), "analysis.hist_range_ps: must be a positive multiple"),
        (_with("analysis", "hist_range_ps", 25), "analysis.hist_range_ps: must be a positive multiple"),
        (_with("analysis", "hist_range_ps", 5025), "analysis.hist_range_ps: must be a positive multiple"),
        # drift and pair selections, refused before a run rather than during one
        (_with("drift", "rate_deg_per_hour", -1.0), "drift.rate_deg_per_hour: must be >= 0"),
        (_with("drift", "max_offset_deg", 0.0), "drift.max_offset_deg: must be > 0"),
        (_with("drift", "max_offset_deg", -3.0), "drift.max_offset_deg: must be > 0"),
        (_with_top("pairs", [0, 0]), "pairs: duplicate pair id in [0, 0]"),
        (_with_top("pairs", [3]), "pairs: ids [3] are not on the inner ring"),
        (_with_top("pairs", [3, 0], ring="outer"), "pairs: ids [0] are not on the outer ring"),
    ],
)
def test_invalid_values_rejected_with_field_path(data, path):
    # NaN and Infinity are what Python's JSON parser accepts for them
    with pytest.raises(ConfigError, match=re.escape(path)):
        loads_config(json.dumps(data))


@pytest.mark.parametrize(
    "data, message",
    [
        (_with("analysis", "subtract_accidentals", False), "analysis.subtract_accidentals: unknown key"),
        (_with_top("emit_ground_truth", True), "emit_ground_truth: unknown key"),
        (_with("link", "propagation_delay_ps", 0), "link.propagation_delay_ps: unknown key"),
        (_with("analysis", "window_mode", "half"), "analysis.window_mode: must be 'full', got 'half'"),
    ],
    ids=["subtract_accidentals", "emit_ground_truth", "propagation_delay_ps", "window_mode-half"],
)
def test_deleted_options_rejected_with_field_path(data, message):
    # the accidental subtraction, the dark-flag switch, the link delay and the
    # half-width window are gone; a config that still sets one is refused
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        loads_config(json.dumps(data))


def test_window_capture_fraction_has_one_mode():
    assert window_capture_fraction(300, 50.0, "full") == window_capture_fraction(300, 50.0)
    assert window_capture_fraction(300, 50.0) == pytest.approx(math.erf(1.5))
    with pytest.raises(ValueError, match="window mode must be 'full', got 'half'"):
        window_capture_fraction(300, 50.0, "half")

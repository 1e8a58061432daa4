"""Unit tests for configuration parsing, validation and presets."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcfqkd.coincidence import (
    ACCIDENTAL_GAP_PS,
    HIST_BIN_PS,
    HIST_RANGE_PS,
    CorrelationHistogram,
    estimate_accidentals,
)
from mcfqkd.config import (
    ConfigError,
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
from mcfqkd.geometry import build_layout
from mcfqkd.photonsim import PS_PER_S, PURPOSE_TAGS, LinkParams, SourceParams, _stream_rng, acquisitions
from mcfqkd.photonsim import apply_polarization_drift, simulate_run
from mcfqkd.qkdmath import KeyRateInputs, secret_key_rate

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
        with pytest.raises(ConfigError, match=rf"^seed: seed must be in \[0, 2\*\*32\), got {seed}$"):
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
        # a retired key, refused by name before its value is read
        (_with("analysis", "accidental_offset_windows", math.nan), "analysis.accidental_offset_windows"),
        (_with("analysis", "hist_bin_ps", 0), "analysis.hist_bin_ps"),
        (_with("analysis", "hist_range_ps", -5000), "analysis.hist_range_ps"),
        (_with("schedule", "bases", []), "schedule.bases"),
        (_with("schedule", "bases", ["HV", "HV"]), "schedule.bases"),
        (_with("schedule", "rate_scales", {"HV": 1.0, "XY": 1.0}), "schedule.rate_scales.XY"),
        (_with("schedule", "rate_scales", {"HV": 1.0, "DA": 0.0}), "schedule.rate_scales.DA"),
        (_with("keyrate", "ec_efficiency", 10**400), "keyrate.ec_efficiency"),
        # grids that were refused as no whole number of bins, while the grid was a key
        (_with("analysis", "hist_bin_ps", 30), "analysis.hist_bin_ps: unknown key"),
        (_with("analysis", "hist_range_ps", 25), "analysis.hist_range_ps: unknown key"),
        (_with("analysis", "hist_range_ps", 5025), "analysis.hist_range_ps: unknown key"),
        # drift and pair selections, refused before a run rather than during one; an
        # explicit id, here and below, keeps a case's name stable now that its message
        # is that of the value's owner in ``photonsim``
        pytest.param(
            _with("drift", "rate_deg_per_hour", -1.0),
            "drift.rate_deg_per_hour: drift rate must be finite and >= 0, got -1.0",
            id="data19-drift.rate_deg_per_hour: must be >= 0",
        ),
        pytest.param(
            _with("drift", "max_offset_deg", 0.0),
            "drift.max_offset_deg: max_offset_deg must be finite and > 0, got 0.0",
            id="data20-drift.max_offset_deg: must be > 0",
        ),
        pytest.param(
            _with("drift", "max_offset_deg", -3.0),
            "drift.max_offset_deg: max_offset_deg must be finite and > 0, got -3.0",
            id="data21-drift.max_offset_deg: must be > 0",
        ),
        (_with_top("pairs", [0, 0]), "pairs: duplicate pair id in [0, 0]"),
        (_with_top("pairs", [3]), "pairs: ids [3] are not on the inner ring"),
        (_with_top("pairs", [3, 0], ring="outer"), "pairs: ids [0] are not on the outer ring"),
        (_with_top("pairs", []), "pairs: must not be empty"),
        # grids that were refused as leaving no sideband, while the grid was a key
        (_with("analysis", "hist_range_ps", 1000), "analysis.hist_range_ps: unknown key"),
        (_with_top("analysis", {"hist_bin_ps": 1, "hist_range_ps": 999}), "analysis.hist_bin_ps: unknown key"),
        # a segment holds whole ps, so an acquisition must round to 1 ps or more
        pytest.param(
            _with("schedule", "acquisition_s", 0.0),
            "schedule.acquisition_s: acquisition_s must be in [1 ps, 2**60 ps) once rounded, got 0.0",
            id="data28-schedule.acquisition_s: must round to 1 ps or more, got 0.0",
        ),
        pytest.param(
            _with("schedule", "acquisition_s", 1e-13),
            "schedule.acquisition_s: acquisition_s must be in [1 ps, 2**60 ps) once rounded, got 1e-13",
            id="data29-schedule.acquisition_s: must round to 1 ps or more, got 1e-13",
        ),
        # the scan's two acquisitions and the jitter's 6 sigma must end before 2**60 ps, the
        # tag times' limit: refused at load, not by an overflow or by the simulator unnamed;
        # either acquisition alone already passes it
        pytest.param(
            _with("schedule", "acquisition_s", 1e300),
            "schedule.acquisition_s: acquisition_s must be in [1 ps, 2**60 ps) once rounded, got 1e+300",
            id=(
                "data30-schedule.acquisition_s: the scan of 2, plus 6 sigma of jitter,"
                " must end before 2**60 ps, got 1e+300"
            ),
        ),
        pytest.param(
            _with("schedule", "acquisition_s", 2e6),
            "schedule.acquisition_s: acquisition_s must be in [1 ps, 2**60 ps) once rounded, got 2000000.0",
            id=(
                "data31-schedule.acquisition_s: the scan of 2, plus 6 sigma of jitter,"
                " must end before 2**60 ps, got 2000000.0"
            ),
        ),
        # a negative f, refused by the key rate's own check before the link model,
        # whose copy of it would name the ring loss
        (
            _with("keyrate", "ec_efficiency", -0.1),
            "keyrate.ec_efficiency: ec_efficiency must be finite and >= 0, got -0.1",
        ),
    ],
)
def test_invalid_values_rejected_with_field_path(data, path):
    # NaN and Infinity are what Python's JSON parser accepts for them
    with pytest.raises(ConfigError, match=re.escape(path)):
        loads_config(json.dumps(data))


@pytest.mark.parametrize("bases, acquisition_s", [(["HV", "DA"], 576_460.0), (["HV"], 1_152_921.0)])
def test_scan_that_ends_just_before_the_tag_time_limit_loads(bases, acquisition_s):
    # 2**60 ps is 1,152,921.5 s; the refusal counts every acquisition of the scan
    data = {**MINIMAL, "schedule": {"bases": bases, "acquisition_s": acquisition_s}}
    assert loads_config(json.dumps(data)).schedule.acquisition_s == acquisition_s
    data["schedule"]["acquisition_s"] = acquisition_s + 1.0
    # one acquisition past the limit is refused by the schedule, the second one's
    # tags, which start before it, by the simulator's bound
    start = round((acquisition_s + 1.0) * PS_PER_S)
    message = {
        1: f"acquisition_s must be in [1 ps, 2**60 ps) once rounded, got {acquisition_s + 1.0}",
        2: f"tag times must lie in [0, 2**60) ps, got [{start}, {2 * start + 300}) with 6 sigma of jitter",
    }[len(bases)]
    with pytest.raises(ConfigError, match=f"^{re.escape(f'schedule.acquisition_s: {message}')}$"):
        loads_config(json.dumps(data))


def _tags_of_second_acquisition(acquisition_s):
    # the simulator's run of the scan's last acquisition, on the presets' link
    segment = acquisitions(["HV", "DA"], acquisition_s, acquisition_s)[-1]
    return simulate_run(SourceParams(pair_rate=1.0), build_layout().pairs[0], LinkParams(), segment, seed=42)


@pytest.mark.parametrize(
    "path, value, owner",
    [
        ("seed", 2**32, lambda v: _stream_rng(v, PURPOSE_TAGS, 0, 0)),
        ("seed", -1, lambda v: _stream_rng(v, PURPOSE_TAGS, 0, 0)),
        ("schedule.bases", ["HV", "XY"], lambda v: acquisitions(v, 60.0, 60.0)),
        ("schedule.acquisition_s", 1e-13, lambda v: acquisitions(["HV", "DA"], v, v)),
        ("schedule.acquisition_s", 1e300, lambda v: acquisitions(["HV", "DA"], v, v)),
        ("schedule.acquisition_s", 576_461.0, _tags_of_second_acquisition),
        ("drift.rate_deg_per_hour", -1.0, lambda v: apply_polarization_drift([0.0, 0.5], v, 44)),
        ("drift.max_offset_deg", 0.0, lambda v: apply_polarization_drift([0.0, 0.5], 2.0, 44, v)),
        ("drift.max_offset_deg", -3.0, lambda v: apply_polarization_drift([0.0, 0.5], 0.0, 44, v)),
        ("keyrate.ec_efficiency", -0.1, lambda v: secret_key_rate(KeyRateInputs(1.0, 1.0, 0.01, 0.01, v))),
    ],
    ids=["seed-2**32", "seed-negative", "basis", "acquisition-0-ps", "acquisition-1e300", "scan-past-2**60",
         "drift-rate", "max-offset-0", "max-offset-negative", "ec-efficiency"],
)
def test_value_refused_at_load_in_its_owners_words(path, value, owner):
    # one check per value: the load names the field, then says what the code that
    # uses the value says of it, so no second wording of the rule can creep back
    with pytest.raises(ValueError) as own:
        owner(value)
    data = json.loads(dumps_config(preset_inner()))
    *section, key = path.split(".")
    (data[section[0]] if section else data)[key] = value
    with pytest.raises(ConfigError) as err:
        loads_config(json.dumps(data))
    assert str(err.value) == f"{path}: {own.value}"


@pytest.mark.parametrize(
    "hist_bin_ps, hist_range_ps",
    [(1, 1000), (3, 1002), (50, 1050), (200, 1200), (HIST_BIN_PS, HIST_RANGE_PS)],
)
def test_smallest_histogram_range_keeps_sidebands(hist_bin_ps, hist_range_ps):
    # the grid is no config key: the accidentals' own check is the only one.  At
    # range = bin + 999 ps, and on the tally's own grid, every peak the tally can
    # find (a rounded bin centre, or 0 on an empty histogram) keeps a bin 1 ns
    # away; one bin less leaves none from a peak at 0
    hist = CorrelationHistogram(hist_bin_ps, hist_range_ps, np.zeros(2 * hist_range_ps // hist_bin_ps))
    for delay in [0, *(int(round(c)) for c in hist.bin_centers())]:
        estimate_accidentals(hist, delay, 300, 1, 1, 1.0)
    if hist_range_ps - hist_bin_ps + 1 == ACCIDENTAL_GAP_PS:
        fewer = hist_range_ps - hist_bin_ps
        hist = CorrelationHistogram(hist_bin_ps, fewer, np.zeros(2 * fewer // hist_bin_ps))
        with pytest.raises(ValueError, match="^no histogram bin lies 1000 ps or more from the peak at 0 ps$"):
            estimate_accidentals(hist, 0, 300, 1, 1, 1.0)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("layout", "pitch_um", 7, "layout: pitch 7.0 um must exceed the core diameter 8.0 um; cores overlap"),
        ("layout", "core_radius_um", -1, "layout: core radius must be > 0, got -1.0"),
        ("emission", "annulus_width_um", -1, "emission: annulus width must be > 0"),
        (
            "source",
            "temperature_c",
            200,
            "emission: temperature 200.0 C extrapolates to a non-positive annulus radius (-7088.059 um)",
        ),
        ("linkbudget", "ring_loss_db", -10, "linkbudget.ring_loss_db: must be >= 0"),
        # no arm loss leaves the link model's singles at the mean coincidence rate, below HV's
        (
            "linkbudget",
            "ring_loss_db",
            0,
            "linkbudget.ring_loss_db: 0.0 dB gives no link model: "
            "true coincidences cannot exceed the arm singles",
        ),
    ],
    ids=[
        "pitch", "core-radius", "annulus-width", "temperature", "ring-loss", "ring-loss-0",
    ],
)
def test_geometry_and_link_budget_checked_at_load(tmp_path, section, key, value, message):
    # the geometry's own rules, run when the file loads and named by its section
    from mcfqkd.config import load_config

    path = tmp_path / "run.json"
    path.write_text(json.dumps(_with(section, key, value)))
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_config(path)


@pytest.mark.parametrize(
    "data, message",
    [
        (_with("analysis", "subtract_accidentals", False), "analysis.subtract_accidentals: unknown key"),
        (_with_top("emit_ground_truth", True), "emit_ground_truth: unknown key"),
        (_with("link", "propagation_delay_ps", 0), "link.propagation_delay_ps: unknown key"),
        (_with("analysis", "window_mode", "half"), "analysis.window_mode: unknown key"),
        (
            _with("analysis", "accidental_offset_windows", 20.0),
            "analysis.accidental_offset_windows: unknown key",
        ),
        (
            _with("linkbudget", "reference_length_km", 0.411),
            "linkbudget.reference_length_km: unknown key",
        ),
        # the keys' own former defaults, as a config written before they went holds them
        (_with("analysis", "hist_bin_ps", 50), "analysis.hist_bin_ps: unknown key"),
        (_with("analysis", "hist_range_ps", 5000), "analysis.hist_range_ps: unknown key"),
        (_with("analysis", "window_mode", "full"), "analysis.window_mode: unknown key"),
    ],
    ids=["subtract_accidentals", "emit_ground_truth", "propagation_delay_ps", "window_mode-half",
         "accidental_offset_windows", "reference_length_km", "hist_bin_ps-50", "hist_range_ps-5000",
         "window_mode-full"],
)
def test_deleted_options_rejected_with_field_path(data, message):
    # the accidental subtraction, the dark-flag switch, the link delay, the
    # window mode, the offset window of the accidentals, the link budget's own
    # reference length (it is ``link.fiber_length_km``) and the histogram grid
    # (the tally's own) are gone; a config that still sets one is refused
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        loads_config(json.dumps(data))


def test_window_capture_fraction_has_one_mode():
    assert window_capture_fraction(300, 50.0, "full") == window_capture_fraction(300, 50.0)
    assert window_capture_fraction(300, 50.0) == pytest.approx(math.erf(1.5))
    with pytest.raises(ValueError, match="window mode must be 'full', got 'half'"):
        window_capture_fraction(300, 50.0, "half")


def test_analysis_section_is_the_window():
    # the window mode the benchmark harness reads is a property, not a key
    cfg = preset_inner()
    assert json.loads(dumps_config(cfg))["analysis"] == {"window_ps": 300}
    assert cfg.analysis.window_mode == "full"
    with pytest.raises(AttributeError):
        cfg.analysis.window_mode = "half"


def test_config_loads_no_random_module():
    # the seed's check is the streams' own, made without building a generator, so
    # that loading a config (each ``analyze`` does) does not load ``numpy.random``
    # and add its import time and resident memory to a run that draws nothing
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mcfqkd.config as c; "
        "c.loads_config(c.dumps_config(c.preset_stability())); print('numpy.random' in sys.modules)"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_config_loads_no_coincidence_module():
    # the config checks no histogram grid, so loading and checking one, in a
    # fresh interpreter, imports nothing of the coincidence chain
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import mcfqkd.config as c; "
        "c.loads_config(c.dumps_config(c.preset_outer())); "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('mcfqkd'))))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    modules = json.loads(run.stdout)
    assert "mcfqkd.config" in modules and "mcfqkd.coincidence" not in modules, modules

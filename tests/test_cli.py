"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mcfqkd import cli, config, photonsim, runner
from mcfqkd.cli import LINKBUDGET_CSV_HEADER, main
from mcfqkd.config import dump_config, preset, preset_inner, selected_pairs, window_capture_fraction
from mcfqkd.geometry import coupling_probabilities
from mcfqkd.photonsim import PS_PER_S
from mcfqkd.runner import analyze_segment, run_basis_scan, scan_schedule, simulate_segment
from mcfqkd.tagio import TAG_DTYPE, read_timetags


@pytest.fixture
def quick_config(tmp_path):
    cfg = preset_inner()
    cfg.schedule.acquisition_s = 2.0
    path = tmp_path / "run.json"
    dump_config(cfg, path)
    return path


def edit_records(path, edit):
    """Rewrite the tag file ``path`` with the records (``TAG_DTYPE``) that ``edit``
    returns for its records, which it may leave out of the format."""
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + edit(np.frombuffer(raw, dtype=TAG_DTYPE, offset=16).copy()).tobytes())


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSimulate:
    def test_inner_ring_writes_six_files(self, quick_config, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(quick_config), "--out", str(out)]) == 0
        tag_files = sorted(p.name for p in out.glob("*.mcqt"))
        assert len(tag_files) == 6
        assert (out / "ground_truth.json").exists()

    def test_repeated_runs_byte_identical(self, quick_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", str(quick_config), "--out", str(out1)])
        main(["simulate", "--config", str(quick_config), "--out", str(out2)])
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_seed_changes_streams(self, quick_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", str(quick_config), "--out", str(out1)])
        main(["simulate", "--config", str(quick_config), "--seed", "99", "--out", str(out2)])
        assert (out1 / "pair0_alice.mcqt").read_bytes() != (
            out2 / "pair0_alice.mcqt"
        ).read_bytes()

    def test_empty_pair_selection_fails(self, tmp_path, capsys):
        cfg = preset_inner()
        cfg.pairs = []
        path = tmp_path / "bad.json"
        dump_config(cfg, path)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        # refused when the file loads, with its path, before the output directory is made
        assert capsys.readouterr().err == f"error: {path}: pairs: must not be empty\n"
        assert not (tmp_path / "x").exists()

    def test_acquisition_rounding_to_0_ps_names_the_field(self, tmp_path, capsys):
        cfg = preset_inner()
        cfg.schedule.acquisition_s = 1e-13
        path = tmp_path / "bad.json"
        dump_config(cfg, path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        want = "acquisition_s must be in [1 ps, 2**60 ps) once rounded, got 1e-13"
        assert err == f"error: {path}: schedule.acquisition_s: {want}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("acquisition_s", [1e300, 2e6])
    def test_scan_past_the_tag_time_limit_names_the_field(self, tmp_path, capsys, acquisition_s):
        # refused at load, by the schedule that converts it to ps, not by an overflow
        # in ``round`` (1e300) or by the simulator's tag-time bound unnamed (2e6)
        cfg = preset_inner()
        cfg.schedule.acquisition_s = acquisition_s
        path = tmp_path / "bad.json"
        dump_config(cfg, path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        want = f"acquisition_s must be in [1 ps, 2**60 ps) once rounded, got {acquisition_s}"
        assert capsys.readouterr().err == f"error: {path}: schedule.acquisition_s: {want}\n"
        assert not (tmp_path / "x").exists()

    def test_acquisition_too_large_to_allocate_exits_2(self, quick_config, tmp_path, capsys, monkeypatch):
        # a stand-in generator whose arrays of times cannot be allocated, as a 6e5 s
        # acquisition's cannot: an error naming the acquisition, not numpy's traceback
        def no_memory(*args, **kwargs):
            raise MemoryError

        real = photonsim._stream_rng
        monkeypatch.setattr(
            photonsim, "_stream_rng", lambda *args: SimpleNamespace(poisson=real(*args).poisson, integers=no_memory)
        )
        assert main(["simulate", "--config", str(quick_config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \d+ photon tags of a 2 s acquisition cannot be allocated\n", err)

    def test_schema_violation_reports_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": {"pair_rate": 1.0, "typo_key": 2}}))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "source.typo_key" in capsys.readouterr().err

    def test_missing_config_fails(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x")]) != 0

    @pytest.mark.parametrize(
        "args",
        [["simulate"], ["stability", "--hours", "1", "--switch-min", "15", "--acquisition-s", "2"]],
        ids=["simulate", "stability"],
    )
    def test_bad_histogram_grid_names_the_field(self, tmp_path, capsys, args):
        # the histogram grid and the window mode are no config keys: a --config
        # that sets one, even to its former default (the 30 ps bins that left
        # 5000 ps no whole number of them too), is refused by name when it loads
        path, out = tmp_path / "bad.json", tmp_path / "out"
        grids = [("hist_bin_ps", 30), ("hist_bin_ps", 50), ("hist_range_ps", 5000), ("window_mode", "full")]
        for key, value in grids:
            data = json.loads(config.dumps_config(preset_inner()))
            data["analysis"][key] = value
            path.write_text(json.dumps(data))
            assert main([*args, "--config", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {path}: analysis.{key}: unknown key\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("layout", "pitch_um", 7, "pitch 7.0 um must exceed the core diameter 8.0 um; cores overlap"),
            ("source", "temperature_c", 200, "temperature 200.0 C extrapolates to a non-positive"),
            ("layout", "core_radius_um", -1, "layout: core radius must be > 0, got -1.0"),
            ("linkbudget", "ring_loss_db", -10, "linkbudget.ring_loss_db: must be >= 0"),
        ],
        ids=["pitch-7-um", "temperature-200-c", "core-radius--1-um", "ring-loss--10-db"],
    )
    def test_bad_geometry_makes_no_directory(self, tmp_path, capsys, section, key, value, message):
        # the config's checks run when it loads, before the output directory
        path, out = tmp_path / "bad.json", tmp_path / "out"
        dump_config(preset_inner(), path)
        data = json.loads(path.read_text())
        data[section][key] = value
        path.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert not out.exists()

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        path, out = tmp_path / "bad.json", tmp_path / "out"
        path.write_text('{"seed": 42,}')
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert f"error: {path}: invalid JSON: Expecting property name" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture
    def sim_dir(self, quick_config, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", str(quick_config), "--out", str(out)])
        return out

    def test_roundtrip_matches_ground_truth(self, sim_dir, tmp_path):
        rep = tmp_path / "rep"
        assert main(["analyze", "--in", str(sim_dir), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())
        eta = window_capture_fraction(300, 50.0)
        for pair_id, cmp in report["truth_comparison"].items():
            for basis, analyzed in cmp["analyzed"].items():
                truth = cmp["ground_truth"][basis]
                expected = truth * eta
                assert analyzed == pytest.approx(expected, rel=0.02), (pair_id, basis)

    def test_report_csv_schema(self, sim_dir, tmp_path):
        rep = tmp_path / "rep"
        main(["analyze", "--in", str(sim_dir), "--out", str(rep)])
        header, rows = read_csv(rep / "report.csv")
        assert header[0] == "pair_id"
        assert "skr_bits_s" in header
        assert len(rows) == 3

    def test_window_override(self, sim_dir, tmp_path):
        rep_narrow = tmp_path / "rep_narrow"
        main(["analyze", "--in", str(sim_dir), "--out", str(rep_narrow), "--window-ps", "100"])
        rep_wide = tmp_path / "rep_wide"
        main(["analyze", "--in", str(sim_dir), "--out", str(rep_wide), "--window-ps", "1000"])
        narrow = json.loads((rep_narrow / "report.json").read_text())
        wide = json.loads((rep_wide / "report.json").read_text())
        c_narrow = narrow["pairs"][0]["hv"]["coincidence_rate_cps"]
        c_wide = wide["pairs"][0]["hv"]["coincidence_rate_cps"]
        assert c_narrow < c_wide

    @pytest.mark.parametrize("window", [[], ["--window-ps", "200"]], ids=["stored", "window-ps"])
    def test_geometry_built_once(self, sim_dir, tmp_path, monkeypatch, window):
        # the stored config's validation, its pair selection and the window
        # override's validation share one build of the core geometry
        builds = []

        def counted(*args):
            builds.append(args)
            return coupling_probabilities(*args)

        monkeypatch.setattr(config, "coupling_probabilities", counted)
        assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep"), *window]) == 0
        assert len(builds) == 1

    def test_corrupt_tag_file_fails_with_offset(self, sim_dir, tmp_path, capsys):
        victim = sim_dir / "pair0_alice.mcqt"
        raw = bytearray(victim.read_bytes())
        raw[:4] = b"JUNK"
        victim.write_bytes(bytes(raw))
        rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc != 0
        err = capsys.readouterr().err
        assert f"error: {victim}: bad magic b'JUNK'" in err and "(offset 0)" in err
        assert not (tmp_path / "rep").exists()

    def test_missing_metadata_fails(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["analyze", "--in", str(empty), "--out", str(tmp_path / "rep")]) != 0

    def test_bad_metadata_names_file_and_key(self, sim_dir, tmp_path, capsys):
        meta_path = sim_dir / "ground_truth.json"
        meta = json.loads(meta_path.read_text())
        del meta["config"]
        meta_path.write_text(json.dumps(meta))
        rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert f"error: {meta_path}: missing key 'config'" in capsys.readouterr().err

        meta_path.write_text("{not json")
        rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert f"error: {meta_path}: invalid JSON" in capsys.readouterr().err

    @staticmethod
    def _analyze_with_meta(sim_dir, tmp_path, capsys, edit):
        meta_path = sim_dir / "ground_truth.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        return rc, capsys.readouterr().err, meta_path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda m: m["truth"]["per_pair"]["0"].pop("true_coincidences"),
                "truth.per_pair.0: truth.per_pair entry needs",
            ),
            (lambda m: m.update(version=99), "version: expected 1, got 99"),
            (lambda m: m.pop("version"), "missing key 'version'"),
            (
                lambda m: m["truth"]["per_pair"]["0"]["true_coincidences"].update(HV="lots"),
                "truth.per_pair.0.true_coincidences.HV: expected an integer, got 'lots'",
            ),
            (
                lambda m: m["truth"]["per_pair"]["0"]["true_coincidences"].update(XY=5),
                "truth.per_pair.0.true_coincidences: keys must be HV/DA, got ['DA', 'HV', 'XY']",
            ),
            (
                lambda m: m["truth"]["per_pair"]["0"]["true_coincidences"].pop("DA"),
                "truth.per_pair.0.true_coincidences: no count for basis 'DA'",
            ),
            (
                lambda m: m["truth"]["per_pair"]["2"].update(true_coincidences={}),
                "truth.per_pair.2.true_coincidences: no count for basis 'HV'",
            ),
        ],
        ids=["no-true-coincidences", "version-99", "no-version", "count-string", "count-basis-XY",
             "no-count-DA", "no-counts"],
    )
    def test_bad_files_entry_rejected(self, sim_dir, tmp_path, capsys, edit, message):
        # the version and the truth entry of each pair that the stored config measures
        rc, err, meta_path = self._analyze_with_meta(sim_dir, tmp_path, capsys, edit)
        assert rc == 2
        assert f"error: {meta_path}: {message}" in err

    def test_pair_without_truth_entry_rejected(self, sim_dir, tmp_path, capsys):
        rc, err, meta_path = self._analyze_with_meta(
            sim_dir, tmp_path, capsys, lambda m: m["truth"]["per_pair"].pop("2")
        )
        assert rc == 2
        assert f"error: {meta_path}: truth.per_pair: no entry for pair 2" in err

        rc, err, _ = self._analyze_with_meta(
            sim_dir, tmp_path, capsys, lambda m: m["truth"].pop("per_pair")
        )
        assert rc == 2
        assert "truth.per_pair: no entry for pair 0" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda c: c["analysis"].update(subtract_accidentals=False),
                "analysis.subtract_accidentals: unknown key",
            ),
            (lambda c: c.update(emit_ground_truth=True), "emit_ground_truth: unknown key"),
            (lambda c: c["link"].update(propagation_delay_ps=0), "link.propagation_delay_ps: unknown key"),
            (lambda c: c["analysis"].update(window_mode="half"), "analysis.window_mode: unknown key"),
            (lambda c: c["analysis"].update(hist_bin_ps=30), "analysis.hist_bin_ps: unknown key"),
            (
                lambda c: c["analysis"].update(accidental_offset_windows=20.0),
                "analysis.accidental_offset_windows: unknown key",
            ),
            (
                lambda c: c["linkbudget"].update(reference_length_km=0.411),
                "linkbudget.reference_length_km: unknown key",
            ),
            # the former defaults, as a ground_truth.json written before the keys went holds them
            (lambda c: c["analysis"].update(hist_bin_ps=50), "analysis.hist_bin_ps: unknown key"),
            (lambda c: c["analysis"].update(hist_range_ps=5000), "analysis.hist_range_ps: unknown key"),
            (lambda c: c["analysis"].update(window_mode="full"), "analysis.window_mode: unknown key"),
        ],
        ids=["subtract_accidentals", "emit_ground_truth", "propagation_delay_ps", "window_mode-half",
             "hist-bin-30", "accidental_offset_windows", "reference_length_km", "hist_bin_ps-50",
             "hist_range_ps-5000", "window_mode-full"],
    )
    def test_bad_config_section_rejected(self, sim_dir, tmp_path, capsys, edit, message):
        # a ground_truth.json whose config sets a deleted option
        rc, err, meta_path = self._analyze_with_meta(
            sim_dir, tmp_path, capsys, lambda m: edit(m["config"])
        )
        assert rc == 2
        assert f"error: {meta_path}: config: {message}" in err

    @pytest.mark.parametrize("name", ["pair2_bob.mcqt"], ids=["file-missing"])
    def test_files_other_than_the_config_pairs_rejected(self, sim_dir, tmp_path, capsys, name):
        # analyze reads the tag files of the stored config's pairs; a missing one is named
        (sim_dir / name).unlink()
        assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{sim_dir / name}'\n"
        assert not (tmp_path / "rep").exists()

    def test_empty_streams_zero_report(self, sim_dir, tmp_path):
        # truncate one pair's files to headers only: zero-count report, no crash
        for name in ("pair0_alice.mcqt", "pair0_bob.mcqt"):
            path = sim_dir / name
            path.write_bytes(path.read_bytes()[:16])
        rep = tmp_path / "rep"
        assert main(["analyze", "--in", str(sim_dir), "--out", str(rep)]) == 0
        report = json.loads((rep / "report.json").read_text())
        pair0 = report["pairs"][0]
        assert pair0["hv"]["counts"] == {"c_pp": 0, "c_pm": 0, "c_mp": 0, "c_mm": 0}
        assert pair0["hv"]["visibility"] is None
        assert pair0["skr_bits_s"] == 0.0

    def test_tags_out_of_time_order_rejected(self, sim_dir, tmp_path, capsys):
        # Alice's halves swapped: her last record now ends the first segment,
        # so the overlap cutoff ends her reads there, before the file's end
        path = sim_dir / "pair0_alice.mcqt"
        edit_records(path, lambda tags: np.concatenate([tags[len(tags) // 2 :], tags[: len(tags) // 2]]))
        with pytest.warns(RuntimeWarning, match="durations differ"):
            rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert f"error: {path}: times decrease after this record (offset 16)" in capsys.readouterr().err

    def test_out_of_order_record_past_the_cutoff_rejected(self, sim_dir, tmp_path, capsys):
        # Alice of pair 0 cut to a third, so the overlap cutoff ends every
        # read before a Bob record near 3.2 s, which is set back to 0.5 s
        alice, bob = sim_dir / "pair0_alice.mcqt", sim_dir / "pair0_bob.mcqt"
        edit_records(alice, lambda tags: tags[: len(tags) // 3])
        i = int(np.searchsorted(read_timetags(bob)[0].times, 16 * PS_PER_S // 5))

        def set_back(tags):
            tags["time_ps"][i] = PS_PER_S // 2
            return tags

        edit_records(bob, set_back)
        with pytest.warns(RuntimeWarning, match="durations differ"):
            rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc == 2
        offset = 16 + 16 * (i - 1)
        assert f"error: {bob}: times decrease after this record (offset {offset})" in capsys.readouterr().err

    def test_swapped_records_name_the_file_and_offset(self, sim_dir, tmp_path, capsys):
        # records 1000 and 1001 of Alice's first segment swapped: the read of
        # the segment names the record after which the times decrease
        path = sim_dir / "pair0_alice.mcqt"
        edit_records(path, lambda tags: tags[np.r_[:1000, 1001, 1000, 1002 : len(tags)]])
        assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")]) == 2
        want = f"error: {path}: times decrease after this record (offset {16 + 16 * 1000})"
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["alice header is bob's", "bob channel 200", "bob flags 0x80"])
    def test_tag_file_columns_checked(self, sim_dir, tmp_path, capsys, case):
        # a header channel id must match the file's role, and each record its
        # header's channels (Bob 2/3), flag bit 0 at most and zero reserved bytes
        alice, bob = sim_dir / "pair0_alice.mcqt", sim_dir / "pair0_bob.mcqt"
        if case == "alice header is bob's":
            raw = bytearray(alice.read_bytes())
            raw[6:8] = (1).to_bytes(2, "little")
            alice.write_bytes(bytes(raw))
            want = f"error: {alice}: channel id 1 is not the alice stream's 0 (offset 6)"
        else:
            column, value = case.split()[1:]
            i = len(read_timetags(bob)[0]) // 2

            def set_column(tags):
                tags[column][i] = int(value, 0)
                return tags

            edit_records(bob, set_column)
            want = f"error: {bob}: record {column} {value} not valid for channel id 1 (offset {16 + 16 * i})"
        assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")]) == 2
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("time", [2**60, 2**63 + 5], ids=["2**60", "2**63+5"])
    @pytest.mark.parametrize("where", ["middle", "last"])
    def test_time_from_2_60_ps_rejected(self, sim_dir, tmp_path, capsys, where, time):
        # a Bob record at or past the 2**60 ps bound on tag times, which a read would
        # otherwise take as a negative time, a time out of order or a long stream
        bob = sim_dir / "pair0_bob.mcqt"
        n = len(read_timetags(bob)[0])
        i = n // 2 if where == "middle" else n - 1

        def set_time(tags):
            tags["time_ps"][i] = time
            return tags

        edit_records(bob, set_time)
        assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")]) == 2
        want = f"error: {bob}: time {time} ps not below 2**60 (offset {16 + 16 * i})"
        assert want in capsys.readouterr().err

    def test_mismatched_durations_warns(self, sim_dir, tmp_path):
        # drop all but the first third of Bob's stream for pair 0
        edit_records(sim_dir / "pair0_bob.mcqt", lambda tags: tags[: len(tags) // 3])
        with pytest.warns(RuntimeWarning, match="durations differ"):
            assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")]) == 0


@pytest.mark.parametrize(
    "name, bases, pairs",
    [
        ("inner", ["HV", "DA"], None),
        ("outer", ["HV", "DA"], None),
        ("inner", ["DA", "HV"], None),
        ("inner", ["HV"], None),
        ("inner", ["HV", "DA"], [0, 2]),
    ],
    ids=["inner", "outer", "inner-DA-HV", "inner-HV", "inner-pairs-0-2"],
)
def test_analyze_agrees_with_the_basis_scan(name, bases, pairs, tmp_path):
    # the CLI round trip and the library scan of one config give the same pairs:
    # analyze derives the schedule, in the config's basis order, and the tag
    # files from the stored config, as simulate and the scan do
    cfg = preset(name)
    cfg.schedule.acquisition_s, cfg.schedule.bases, cfg.pairs = 5.0, bases, pairs
    path, sim, rep = tmp_path / "run.json", tmp_path / "sim", tmp_path / "rep"
    dump_config(cfg, path)
    assert main(["simulate", "--config", str(path), "--out", str(sim)]) == 0
    ids = [p.pair_id for p in selected_pairs(cfg)]
    want = sorted(f"pair{i}_{role}.mcqt" for i in ids for role in ("alice", "bob"))
    assert sorted(p.name for p in sim.glob("*.mcqt")) == want
    assert main(["analyze", "--in", str(sim), "--out", str(rep)]) == 0
    report = json.loads((rep / "report.json").read_text())
    scan = run_basis_scan(cfg)
    assert [p["pair_id"] for p in report["pairs"]] == ids
    assert report["pairs"] == [asdict(p) for p in scan.pairs]
    assert report["total_bits_s"] == scan.total_bits_s
    assert all(sorted(c["analyzed"]) == sorted(bases) for c in report["truth_comparison"].values())


class TestLinkBudget:
    def test_exact_csv_header(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            ["linkbudget", "--preset", "inner", "--lmax-km", "50", "--step-km", "5",
             "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == LINKBUDGET_CSV_HEADER
        assert len(rows) == 11
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 50.0

    def test_no_ring_loss_refused_at_load(self, tmp_path, capsys):
        # 0 dB leaves no link model: refused when the file loads, naming the field and the file
        path, out = tmp_path / "lossless.json", tmp_path / "out" / "curve.csv"
        cfg = preset_inner()
        cfg.linkbudget.ring_loss_db = 0.0
        dump_config(cfg, path)
        assert main(["linkbudget", "--config", str(path), "--out", str(out)]) == 2
        message = "linkbudget.ring_loss_db: 0.0 dB gives no link model: true coincidences cannot exceed"
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not out.parent.exists()

    def test_step_must_be_positive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["linkbudget", "--preset", "inner", "--lmax-km", "50", "--step-km", "0",
                 "--out", str(tmp_path / "x.csv")]
            )
        assert exc.value.code == 2
        assert "argument --step-km: expected a finite number > 0" in capsys.readouterr().err

    def test_lmax_below_reference_rejected(self, tmp_path, capsys):
        rc = main(
            ["linkbudget", "--preset", "inner", "--lmax-km", "0.2", "--step-km", "0.1",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc != 0
        assert "reference" in capsys.readouterr().err


class TestStability:
    def test_short_run_csv(self, tmp_path):
        out = tmp_path / "stab"
        rc = main(
            ["stability", "--preset", "stability", "--hours", "1", "--switch-min", "15",
             "--acquisition-s", "2", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv(out / "stability.csv")
        assert len(rows) == 4
        assert [r[2] for r in rows] == ["HV", "DA", "HV", "DA"]
        points = json.loads((out / "stability.json").read_text())
        assert len(points) == 4

    def test_run_without_slots_names_its_options(self, tmp_path, capsys):
        # 0.2 h is less than half of one 30 min slot
        out = tmp_path / "stab"
        argv = ["stability", "--preset", "stability", "--hours", "0.2", "--switch-min", "30"]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no slot: total_hours 0.2, switch_minutes 30.0\n"
        assert not out.exists()

    def test_acquisition_longer_than_a_slot_names_its_options(self, tmp_path, capsys):
        out = tmp_path / "stab"
        argv = ["stability", "--preset", "stability", "--hours", "1", "--switch-min", "1"]
        assert main([*argv, "--acquisition-s", "120", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: acquisition_s 120.0 does not fit into one slot of switch_minutes 1.0\n"
        assert not out.exists()

    def test_acquisition_rounding_to_0_ps_names_the_option(self, tmp_path, capsys):
        out = tmp_path / "stab"
        argv = ["stability", "--preset", "stability", "--hours", "1", "--switch-min", "15"]
        assert main([*argv, "--acquisition-s", "1e-13", "--out", str(out)]) == 2
        want = "acquisition_s must be in [1 ps, 2**60 ps) once rounded, got 1e-13"
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    def test_run_past_the_tag_time_limit_names_its_hours(self, tmp_path, capsys):
        # 400 h of 30 min slots end at 1.44e18 ps, past 2**60: refused before any slot runs
        out = tmp_path / "stab"
        argv = ["stability", "--preset", "stability", "--hours", "400", "--acquisition-s", "1"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: last slot ends past 2**60 ps: total_hours 400.0, switch_minutes 30.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("acquisition", ["0", "-1"])
    def test_non_positive_acquisition_names_the_option(self, tmp_path, capsys, acquisition):
        with pytest.raises(SystemExit) as exc:
            main(
                ["stability", "--preset", "stability", "--hours", "1", "--switch-min", "15",
                 "--acquisition-s", acquisition, "--out", str(tmp_path / "stab")]
            )
        assert exc.value.code == 2
        assert "argument --acquisition-s: expected a finite number > 0" in capsys.readouterr().err
        assert not (tmp_path / "stab").exists()


class TestReproduce:
    def test_fig2_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["reproduce", "fig2", "--out", str(out1)]) == 0
        assert main(["reproduce", "fig2", "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["fig2.svg", "fig2_inner.csv", "fig2_outer.csv"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header, rows = read_csv(out1 / "fig2_inner.csv")
        assert header == LINKBUDGET_CSV_HEADER
        assert len(rows) == 251
        svg = (out1 / "fig2.svg").read_text()
        assert svg.startswith("<svg")
        assert "7.3 kbit/s" in svg and "34.5 kbit/s" in svg

    def test_fig3_series(self, tmp_path):
        out = tmp_path / "f3"
        assert main(["reproduce", "fig3", "--hours", "1.5", "--out", str(out)]) == 0
        header, rows = read_csv(out / "fig3.csv")
        assert len(rows) == 3
        assert (out / "fig3_qber.svg").exists()
        assert (out / "fig3_keyrate.svg").exists()

    def test_fig3_without_slots_makes_no_directory(self, tmp_path, capsys):
        out = tmp_path / "f3"
        assert main(["reproduce", "fig3", "--hours", "0.2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: no slot: total_hours 0.2, switch_minutes 30.0\n"
        assert not out.exists()

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9", "--out", str(tmp_path)])


class TestEntryPoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    @pytest.mark.parametrize(
        "command, option",
        [
            (["linkbudget", "--preset", "inner"], "--lmax-km"),
            (["linkbudget", "--preset", "inner"], "--step-km"),
            (["stability", "--preset", "stability"], "--hours"),
            (["stability", "--preset", "stability"], "--switch-min"),
            (["stability", "--preset", "stability"], "--acquisition-s"),
            (["reproduce", "fig3"], "--hours"),
        ],
        ids=["lmax-km", "step-km", "stability-hours", "switch-min", "acquisition-s", "fig3-hours"],
    )
    def test_bad_number_names_the_option(self, tmp_path, capsys, command, option, value):
        with pytest.raises(SystemExit) as exc:
            main([*command, option, value, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: expected a finite number > 0, got '{value}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stability", "--preset", "stability", "--hours", "1e308"],
             "slot count not finite: total_hours 1e+308, switch_minutes 30.0"),
            (["reproduce", "fig3", "--hours", "1e308"],
             "slot count not finite: total_hours 1e+308, switch_minutes 30.0"),
            (["linkbudget", "--preset", "inner", "--lmax-km", "1e308", "--step-km", "1e-300"],
             "grid count not finite: lmax_km 1e+308, step_km 1e-300"),
            # 7 PiB of lengths, beyond any x86-64 address space: refused, never filled
            (["linkbudget", "--preset", "inner", "--lmax-km", "1e6", "--step-km", "1e-9"],
             "grid of 1000000000000001 lengths cannot be allocated: lmax_km 1000000.0, step_km 1e-09"),
        ],
        ids=["stability-hours", "fig3-hours", "linkbudget-grid", "linkbudget-grid-memory"],
    )
    def test_overflowing_count_names_the_options(self, tmp_path, capsys, argv, message):
        # each value is finite, but the slot or grid count they give is not,
        # or the grid does not fit in memory
        assert main([*argv, "--out", str(tmp_path / "out" / "x")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n" and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_names_the_option(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "inner", "--seed", "-1", "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert "error: seed: seed must be in [0, 2**32), got -1" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("seed", ["4294967296", "4294967301"])
    def test_seed_beyond_uint32_names_the_option(self, tmp_path, capsys, seed):
        rc = main(["simulate", "--preset", "inner", "--seed", seed, "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert f"error: seed: seed must be in [0, 2**32), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_threads_env_respected(self, quick_config, tmp_path, monkeypatch):
        monkeypatch.setenv("MCFQKD_THREADS", "1")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(quick_config), "--out", str(out)]) == 0

    def test_round_trip_independent_of_thread_count(self, quick_config, tmp_path, monkeypatch):
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MCFQKD_THREADS", threads)
            sim, rep = tmp_path / f"sim{threads}", tmp_path / f"rep{threads}"
            assert main(["simulate", "--config", str(quick_config), "--out", str(sim)]) == 0
            assert main(["analyze", "--in", str(sim), "--out", str(rep)]) == 0
            trees.append({p.name: p.read_bytes() for d in (sim, rep) for p in d.iterdir()})
        assert len(trees[0]) == 9
        assert trees[0] == trees[1]


def _under_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestAllocatorPolicy:
    """``runner.parallel_map``, the executor of every acquisition loop, keeps
    the heap an acquisition frees for the next one, under glibc; importing a
    module, the calls that run no such loop and ``main`` itself leave the
    allocator alone."""

    SRC = str(Path(cli.__file__).resolve().parents[1])

    def run_python(self, code, *args, env=None):
        run = subprocess.run(
            [sys.executable, "-I", "-c", textwrap.dedent(code), self.SRC, *map(str, args)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout.splitlines()[-1])  # after what the code itself prints

    @pytest.mark.skipif(not _under_glibc(), reason="the policy is glibc's mallopt")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_later_analyses_fault_in_no_heap(self, tmp_path, threads):
        # in a fresh interpreter, since frees from earlier tests would already
        # have raised glibc's dynamic mmap threshold in pytest's own process;
        # without the policy each analysis of this run takes 9k-13k faults
        code = """
            import contextlib, io, json, resource, sys
            sys.path.insert(0, sys.argv[1])
            from mcfqkd.cli import main
            run, faults = sys.argv[2], []
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--preset", "inner", "--out", f"{run}/sim"]) == 0
                for k in range(3):
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    assert main(["analyze", "--in", f"{run}/sim", "--out", f"{run}/rep{k}"]) == 0
                    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(json.dumps(faults))
        """
        faults = self.run_python(code, tmp_path, env={**os.environ, "MCFQKD_THREADS": threads})
        assert max(faults[1:]) < 1000, faults

    @pytest.mark.skipif(not _under_glibc(), reason="the policy is glibc's mallopt")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_later_stability_runs_fault_in_no_heap(self, threads):
        # the library's own loop, with no ``main`` in the process; without the
        # policy the second and third 4 h runs take 2.7k-19k faults each
        code = """
            import json, resource, sys
            sys.path.insert(0, sys.argv[1])
            from mcfqkd.config import preset_stability
            from mcfqkd.runner import run_stability
            faults = []
            for k in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                run_stability(preset_stability(), 4.0, 30.0, 60.0)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(json.dumps(faults))
        """
        faults = self.run_python(code, env={**os.environ, "MCFQKD_THREADS": threads})
        assert max(faults[1:]) < 1000, faults

    def test_library_sets_no_policy(self, tmp_path):
        # a stand-in for ``ctypes.CDLL`` records the mallopt calls of each step:
        # importing the CLI, the direct calls that run no acquisition loop and
        # ``main`` with no verb make none; a basis scan and a stability run each
        # set the policy, on the ``parallel_map`` they run on
        code = """
            import ctypes, json, sys, types
            sys.path.insert(0, sys.argv[1])
            calls, steps = [], {}
            libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
            ctypes.CDLL = lambda *args, **kwargs: libc

            def step(name, run):
                before = len(calls)
                try:
                    run()
                except SystemExit:
                    pass
                steps[name] = calls[before:]

            step("import", lambda: __import__("mcfqkd.cli"))
            import mcfqkd.cli
            from mcfqkd.coincidence import tally_basis
            from mcfqkd.config import preset_inner, preset_stability, selected_pairs
            from mcfqkd.photonsim import simulate_run
            from mcfqkd.runner import run_basis_scan, run_stability, scan_schedule
            from mcfqkd.tagio import read_timetags, write_timetags
            cfg = preset_inner()
            cfg.schedule.acquisition_s = 1.0
            segment = scan_schedule(cfg)[0]
            run = []
            step("simulate_run", lambda: run.append(
                simulate_run(cfg.source, selected_pairs(cfg)[0], cfg.link, segment, cfg.seed)
            ))
            arms = run[0].streams[selected_pairs(cfg)[0].pair_id]
            step("tally_basis", lambda: tally_basis(arms.alice, arms.bob, window_ps=300, duration_s=1.0))
            path = f"{sys.argv[2]}/alice.mcqt"
            write_timetags(path, arms.alice)
            step("read_timetags", lambda: read_timetags(path))
            step("main", lambda: mcfqkd.cli.main(["--version"]))
            step("run_basis_scan", lambda: run_basis_scan(cfg))
            step("run_stability", lambda: run_stability(
                preset_stability(), total_hours=1.0, switch_minutes=30.0, acquisition_s=1.0
            ))
            print(json.dumps(steps))
        """
        steps = self.run_python(code, tmp_path)
        policy = [[-3, 32 * 2**20], [-1, 64 * 2**20]] if _under_glibc() else []
        assert steps == {
            "import": [], "simulate_run": [], "tally_basis": [], "read_timetags": [], "main": [],
            "run_basis_scan": policy, "run_stability": policy,
        }

    @pytest.fixture
    def libc(self, monkeypatch):
        """The calls a one-item ``parallel_map`` makes on a stand-in for glibc
        whose ``mallopt`` returns ``result``."""

        def run(result=1, confstr=lambda name: "glibc 2.36"):
            calls = []

            def mallopt(param, value):
                calls.append((param, value))
                return result

            monkeypatch.setattr(runner.os, "confstr", confstr)
            monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
            assert runner.parallel_map(str, [0]) == ["0"]
            return calls

        return run

    def test_mmap_threshold_then_trim_threshold(self, libc):
        assert libc() == [(-3, 32 * 2**20), (-1, 64 * 2**20)]

    def test_no_trim_threshold_when_mmap_threshold_refused(self, libc):
        # set alone, the trim threshold would freeze the dynamic mmap threshold
        assert libc(result=0) == [(-3, 32 * 2**20)]

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError, None])
    def test_nothing_without_glibc(self, libc, error):
        def confstr(name):
            if error is not None:
                raise error(name)
            return None

        assert libc(confstr=confstr) == []


class TestWorkingSet:
    """With one worker, the CLI holds one (pair, segment) acquisition at a
    time: its traced peak exceeds the peak of that acquisition's own
    simulation or analysis by less than a quarter of the pair's file bytes,
    where holding a whole file, or all of a pair's segments, adds at least
    half of them."""

    @pytest.fixture
    def one_pair(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MCFQKD_THREADS", "1")
        cfg = preset_inner()
        cfg.pairs = [0]
        cfg.schedule.acquisition_s = 10.0
        path = tmp_path / "run.json"
        dump_config(cfg, path)
        return cfg, path

    @staticmethod
    def traced_peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def file_bytes(directory):
        return sum(p.stat().st_size for p in directory.glob("*.mcqt"))

    def test_simulate_holds_one_acquisition(self, one_pair, tmp_path):
        cfg, path = one_pair
        pair = selected_pairs(cfg)[0]
        one = max(
            self.traced_peak(simulate_segment, cfg, pair, segment, idx, 0.0)
            for idx, segment in enumerate(scan_schedule(cfg))
        )
        sim = tmp_path / "sim"
        peak = self.traced_peak(main, ["simulate", "--config", str(path), "--out", str(sim)])
        pair_bytes = self.file_bytes(sim)
        assert pair_bytes > 2 * 2**20
        assert peak < one + pair_bytes / 4

    def test_analyze_holds_one_acquisition(self, one_pair, tmp_path):
        cfg, path = one_pair
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(sim)]) == 0
        schedule = scan_schedule(cfg)
        ends = [seg.start_ps for seg in schedule[1:]] + [None]

        def analyze_one(seg, end_ps):
            streams = [
                read_timetags(sim / f"pair0_{role}.mcqt", seg.start_ps, end_ps)[0]
                for role in ("alice", "bob")
            ]
            analyze_segment(*streams, seg, cfg)

        def on_new_thread(*args):
            # as on the CLI's pool: a thread's first acquisition makes the
            # coincidence passes' block scratch, which the thread then keeps
            worker = threading.Thread(target=analyze_one, args=args)
            worker.start()
            worker.join()

        one = max(self.traced_peak(on_new_thread, seg, end) for seg, end in zip(schedule, ends))
        peak = self.traced_peak(main, ["analyze", "--in", str(sim), "--out", str(tmp_path / "rep")])
        assert peak < one + self.file_bytes(sim) / 4


class TestGoldenRoundTrip:
    """Byte-level pins of the CLI's outputs for fixed seeds: the simulate
    tag files and ground-truth metadata (including its config dump), the
    analyze reports, and a short stability run.  Captured before the
    acquisition pipeline and the config types were consolidated, and the
    tag-file pins re-captured (all but fig2's) when the simulator moved to
    Poisson-split detection counts and fixed-length seed tuples.  The
    ground-truth pin was re-captured again when its config section lost
    ``analysis.subtract_accidentals``, ``link.propagation_delay_ps`` and
    ``emit_ground_truth``, and once more when it lost
    ``analysis.accidental_offset_windows``, and once more when it lost the
    copies of the run that its config already states (``schedule``,
    ``files``, ``seed``, each pair's ``ring``) and the config lost
    ``linkbudget.reference_length_km``, and once more when the config lost
    ``analysis.hist_bin_ps``, ``analysis.hist_range_ps`` and
    ``analysis.window_mode``; every other byte of it stayed the same.  The
    report pins were re-captured when the accidentals came from the
    histogram's sidebands, in one record per acquisition; every count, rate,
    visibility, QBER, delay and key rate stayed the same."""

    SIMULATE_SHA256 = {
        "ground_truth.json": "a1aec74f75196ef3cd378c39a513c969b010b9bfcfcda1675eae523ea60eb666",
        "pair0_alice.mcqt": "e9db6a29acb20004a9a1c86dbaf2dec77f2d83ec6d886b9faf3c916a4cc784d1",
        "pair0_bob.mcqt": "bf923ea8f7df74ca26697c35ced109ff72c9e34b00739dd1957e8f39e5040e73",
        "pair1_alice.mcqt": "4c79bc6f3d114e4eee58bfb913bb04e33101c8181bca0f958de4ecf4fc92abec",
        "pair1_bob.mcqt": "2c7cf777a357bb5a3885c29d92b1b713289e753c4ec2e2fd329aac67dc8d9b06",
        "pair2_alice.mcqt": "ca0cba146b26dcca9f3598ab66b529d66f8bee93589804414df88c1e0ff0e68b",
        "pair2_bob.mcqt": "8ac68ba15f0fd3441bdf35cc465219d79944dfb7871ef72e5eeab39e9513ce58",
    }
    ANALYZE_SHA256 = {
        "report.json": "18515a87b52a6c77b1a8edd270e56a49ae18b51e49ce2a5a2d09674c5bdadde5",
        "report.csv": "0be832eff23c06073dbadbf69eda805f9cf9bb5bc025e0cb8f399a0b556ee204",
    }
    STABILITY_CSV_SHA256 = "fc553d6e4d1c3f259bdbb77db4b5660c436c4fbb1d682325523be45479254bcb"
    # captured before the CLI's tables were declared as column maps
    FIG3_CSV_SHA256 = "032c0924d3163514c03ee0d5475488a40f90ba0e856514aabd19aef410cb940b"
    # captured before the link model's per-arm fields were merged
    FIG2_SHA256 = {
        "fig2_inner.csv": "c2806a073d66731277612c5c03974d1a8ea34a97168f321f23d4e24012e3b926",
        "fig2_outer.csv": "e6440e1d53a23cb5d634c3a5349f737228727e7144f16b70871fd0a877738f86",
        "fig2.svg": "b9d951a85e233760821e184074a4e38a6b02b0c2cbbdf393110706e1fb95b9cb",
    }
    # the benchmark's 10 m grid to 250 km, captured before the curve became columns
    LINKBUDGET_10M_SHA256 = {
        "lb_inner.csv": "56bd9add39df7d1abfb590e249d17e8f740371db73896a3720c1d2b6e3bd8437",
        "lb_outer.csv": "bc4bcceb1222b1eaa68a5a3d1e726e447019be92d40b6e6dd2dea715c6c520f1",
    }

    @staticmethod
    def digests(directory, names):
        return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}

    def test_simulate_analyze_round_trip(self, quick_config, tmp_path):
        sim, rep = tmp_path / "sim", tmp_path / "rep"
        assert main(["simulate", "--config", str(quick_config), "--out", str(sim)]) == 0
        assert sorted(p.name for p in sim.iterdir()) == sorted(self.SIMULATE_SHA256)
        assert self.digests(sim, self.SIMULATE_SHA256) == self.SIMULATE_SHA256
        assert main(["analyze", "--in", str(sim), "--out", str(rep)]) == 0
        assert self.digests(rep, self.ANALYZE_SHA256) == self.ANALYZE_SHA256

    def test_stability_csv(self, tmp_path):
        out = tmp_path / "stab"
        rc = main(
            ["stability", "--preset", "stability", "--hours", "1", "--switch-min", "15",
             "--acquisition-s", "2", "--out", str(out)]
        )
        assert rc == 0
        assert self.digests(out, ["stability.csv"]) == {"stability.csv": self.STABILITY_CSV_SHA256}

    def test_reproduce_fig2(self, tmp_path):
        out = tmp_path / "fig2"
        assert main(["reproduce", "fig2", "--out", str(out)]) == 0
        assert self.digests(out, self.FIG2_SHA256) == self.FIG2_SHA256

    def test_linkbudget_10m_csvs(self, tmp_path):
        for ring in ("inner", "outer"):
            argv = ["linkbudget", "--preset", ring, "--lmax-km", "250", "--step-km", "0.01"]
            assert main([*argv, "--out", str(tmp_path / f"lb_{ring}.csv")]) == 0
        assert self.digests(tmp_path, self.LINKBUDGET_10M_SHA256) == self.LINKBUDGET_10M_SHA256

    def test_reproduce_fig3(self, tmp_path):
        out = tmp_path / "fig3"
        assert main(["reproduce", "fig3", "--hours", "1", "--out", str(out)]) == 0
        assert self.digests(out, ["fig3.csv"]) == {"fig3.csv": self.FIG3_CSV_SHA256}

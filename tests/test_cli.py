"""End-to-end tests for the command-line interface."""

import hashlib
import json
import threading
import tracemalloc

import numpy as np
import pytest

from mcfqkd.cli import LINKBUDGET_CSV_HEADER, main
from mcfqkd.config import dump_config, preset_inner, selected_pairs, window_capture_fraction
from mcfqkd.photonsim import PS_PER_S
from mcfqkd.runner import ScheduleSegment, analyze_segment, scan_schedule, simulate_segment
from mcfqkd.tagio import read_timetags, write_timetags


@pytest.fixture
def quick_config(tmp_path):
    cfg = preset_inner()
    cfg.schedule.acquisition_s = 2.0
    path = tmp_path / "run.json"
    dump_config(cfg, path)
    return path


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
        assert rc != 0
        assert "empty pair set" in capsys.readouterr().err

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
        # a 5000 ps range is not a multiple of 30 ps bins: refused when the
        # config loads, not later inside the cross-correlation
        cfg = preset_inner()
        cfg.analysis.hist_bin_ps = 30
        path, out = tmp_path / "bad.json", tmp_path / "out"
        dump_config(cfg, path)
        assert main([*args, "--config", str(path), "--out", str(out)]) == 2
        message = "must be a positive multiple of hist_bin_ps (30), got 5000"
        assert f"error: {path}: analysis.hist_range_ps: {message}" in capsys.readouterr().err
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

    def test_corrupt_tag_file_fails_with_offset(self, sim_dir, tmp_path, capsys):
        victim = sim_dir / "pair0_alice.mcqt"
        raw = bytearray(victim.read_bytes())
        raw[:4] = b"JUNK"
        victim.write_bytes(bytes(raw))
        rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc != 0
        err = capsys.readouterr().err
        assert f"error: {victim}: bad magic b'JUNK'" in err and "(offset 0)" in err

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

    def test_empty_schedule_rejected(self, sim_dir, tmp_path, capsys):
        rc, err, meta_path = self._analyze_with_meta(
            sim_dir, tmp_path, capsys, lambda m: m.update(schedule=[])
        )
        assert rc == 2
        assert f"error: {meta_path}: schedule: has no segments" in err

    @pytest.mark.parametrize("key", ["basis", "start_ps", "duration_ps"])
    def test_schedule_entry_without_key_rejected(self, sim_dir, tmp_path, capsys, key):
        rc, err, meta_path = self._analyze_with_meta(
            sim_dir, tmp_path, capsys, lambda m: m["schedule"][1].pop(key)
        )
        assert rc == 2
        assert f"error: {meta_path}: schedule[1].{key}: missing key" in err

    @pytest.mark.parametrize(
        "idx, key, value, message",
        [
            (0, "start_ps", "5", ".start_ps: expected an integer, got '5'"),
            (0, "start_ps", True, ".start_ps: expected an integer, got True"),
            (1, "duration_ps", 2.5e12, ".duration_ps: expected an integer, got 2500000000000.0"),
            (0, "duration_ps", 0, ": duration_ps must be > 0, got 0"),
            (1, "duration_ps", -1, ": duration_ps must be > 0, got -1"),
            (0, "start_ps", -5, ": start_ps must be >= 0, got -5"),
            (1, "start_ps", 10**12, ": start_ps must be >= 2000000000000, got 1000000000000"),
            (1, "basis", "XY", ": basis must be 'HV' or 'DA', got 'XY'"),
            (1, "basis", "HV", ".basis: 'HV' is measured twice"),
        ],
        ids=["str-start", "bool-start", "float-duration", "zero-duration", "negative-duration",
             "negative-start", "overlap", "basis-XY", "duplicate-basis"],
    )
    def test_bad_schedule_value_rejected(self, sim_dir, tmp_path, capsys, idx, key, value, message):
        rc, err, meta_path = self._analyze_with_meta(
            sim_dir, tmp_path, capsys, lambda m: m["schedule"][idx].update({key: value})
        )
        assert rc == 2
        assert f"error: {meta_path}: schedule[{idx}]{message}" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["files"]["0"].pop("bob"), "files.0: expected an object with string"),
            (lambda m: m["files"].update({"0": "pair0_alice.mcqt"}), "files.0: expected an object"),
            (lambda m: m["files"]["0"].update(bob=5), "files.0: expected an object with string"),
            (lambda m: m["truth"]["per_pair"]["0"].pop("ring"), "files.0: truth.per_pair entry needs"),
            (
                lambda m: m["truth"]["per_pair"]["0"].pop("true_coincidences"),
                "files.0: truth.per_pair entry needs",
            ),
            (lambda m: m["files"].update(x=m["files"].pop("0")), "files.x: pair id is not a decimal"),
            (lambda m: m.update(files=[]), "files: expected an object"),
            (lambda m: m.update(version=99), "version: expected 1, got 99"),
            (lambda m: m.pop("version"), "missing key 'version'"),
            (
                lambda m: m["truth"]["per_pair"]["0"].update(ring=7),
                "truth.per_pair.0.ring: expected 'inner' or 'outer', got 7",
            ),
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
        ids=["no-bob", "string-entry", "int-bob", "no-ring", "no-true-coincidences", "id-x", "list",
             "version-99", "no-version", "ring-7", "count-string", "count-basis-XY", "no-count-DA",
             "no-counts"],
    )
    def test_bad_files_entry_rejected(self, sim_dir, tmp_path, capsys, edit, message):
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
            (
                lambda c: c["analysis"].update(window_mode="half"),
                "analysis.window_mode: must be 'full', got 'half'",
            ),
            (
                lambda c: c["analysis"].update(hist_bin_ps=30),
                "analysis.hist_range_ps: must be a positive multiple of hist_bin_ps (30), got 5000",
            ),
        ],
        ids=["subtract_accidentals", "emit_ground_truth", "propagation_delay_ps", "window_mode-half",
             "hist-bin-30"],
    )
    def test_bad_config_section_rejected(self, sim_dir, tmp_path, capsys, edit, message):
        # a ground_truth.json whose config sets a deleted option or a bad grid
        rc, err, meta_path = self._analyze_with_meta(
            sim_dir, tmp_path, capsys, lambda m: edit(m["config"])
        )
        assert rc == 2
        assert f"error: {meta_path}: config: {message}" in err

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
        tags, channel = read_timetags(path)
        half = len(tags) // 2
        write_timetags(path, np.concatenate([tags[half:], tags[:half]]), channel)
        with pytest.warns(RuntimeWarning, match="durations differ"):
            rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert f"error: {path}: times decrease after this record (offset 16)" in capsys.readouterr().err

    def test_out_of_order_record_past_the_cutoff_rejected(self, sim_dir, tmp_path, capsys):
        # Alice of pair 0 cut to a third, so the overlap cutoff ends every
        # read before a Bob record near 3.2 s, which is set back to 0.5 s
        alice, bob = sim_dir / "pair0_alice.mcqt", sim_dir / "pair0_bob.mcqt"
        tags, channel = read_timetags(alice)
        write_timetags(alice, tags[: len(tags) // 3], channel)
        tags, channel = read_timetags(bob)
        i = int(np.searchsorted(tags["time_ps"], 16 * PS_PER_S // 5))
        tags["time_ps"][i] = PS_PER_S // 2
        write_timetags(bob, tags, channel)
        with pytest.warns(RuntimeWarning, match="durations differ"):
            rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")])
        assert rc == 2
        offset = 16 + 16 * (i - 1)
        assert f"error: {bob}: times decrease after this record (offset {offset})" in capsys.readouterr().err

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
            tags, channel = read_timetags(bob)
            column, value = case.split()[1:]
            i = len(tags) // 2
            tags[column][i] = int(value, 0)
            write_timetags(bob, tags, channel)
            want = f"error: {bob}: record {column} {value} not valid for channel id 1 (offset {16 + 16 * i})"
        assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")]) == 2
        assert want in capsys.readouterr().err

    def test_mismatched_durations_warns(self, sim_dir, tmp_path):
        # drop the second half of Bob's stream for pair 0
        from mcfqkd.tagio import read_timetags, write_timetags

        path = sim_dir / "pair0_bob.mcqt"
        tags, channel = read_timetags(path)
        write_timetags(path, tags[: len(tags) // 3], channel)
        with pytest.warns(RuntimeWarning, match="durations differ"):
            assert main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path / "rep")]) == 0


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

    def test_negative_seed_names_the_option(self, tmp_path, capsys):
        rc = main(["simulate", "--preset", "inner", "--seed", "-1", "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert "error: seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("seed", ["4294967296", "4294967301"])
    def test_seed_beyond_uint32_names_the_option(self, tmp_path, capsys, seed):
        rc = main(["simulate", "--preset", "inner", "--seed", seed, "--out", str(tmp_path / "sim")])
        assert rc == 2
        assert f"error: seed: must be >= 0 and < 2**32, got {seed}" in capsys.readouterr().err
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
            for idx, segment in enumerate(scan_schedule(cfg).segments)
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
        schedule = json.loads((sim / "ground_truth.json").read_text())["schedule"]
        ends = [seg["start_ps"] for seg in schedule[1:]] + [None]

        def analyze_one(seg, end_ps):
            streams = [
                read_timetags(sim / f"pair0_{role}.mcqt", seg["start_ps"], end_ps)[0]
                for role in ("alice", "bob")
            ]
            analyze_segment(*streams, ScheduleSegment(**seg), cfg)

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
    ``emit_ground_truth``; every other byte of it stayed the same."""

    SIMULATE_SHA256 = {
        "ground_truth.json": "6a1f165a8cb1e242a40abcf3ec2cb2b1c8107fbb3e66f79da78e27c97eb6ce56",
        "pair0_alice.mcqt": "e9db6a29acb20004a9a1c86dbaf2dec77f2d83ec6d886b9faf3c916a4cc784d1",
        "pair0_bob.mcqt": "bf923ea8f7df74ca26697c35ced109ff72c9e34b00739dd1957e8f39e5040e73",
        "pair1_alice.mcqt": "4c79bc6f3d114e4eee58bfb913bb04e33101c8181bca0f958de4ecf4fc92abec",
        "pair1_bob.mcqt": "2c7cf777a357bb5a3885c29d92b1b713289e753c4ec2e2fd329aac67dc8d9b06",
        "pair2_alice.mcqt": "ca0cba146b26dcca9f3598ab66b529d66f8bee93589804414df88c1e0ff0e68b",
        "pair2_bob.mcqt": "8ac68ba15f0fd3441bdf35cc465219d79944dfb7871ef72e5eeab39e9513ce58",
    }
    ANALYZE_SHA256 = {
        "report.json": "8fa9225b05304d1133432f475bd3aad3efc5686a6cfb3fe888bfb346bedc5819",
        "report.csv": "4803d8cd881138e2ea700ac0b1a90252a7b08cfcbd3005184f4c024ec8125dee",
    }
    STABILITY_CSV_SHA256 = "fc553d6e4d1c3f259bdbb77db4b5660c436c4fbb1d682325523be45479254bcb"
    # captured before the link model's per-arm fields were merged
    FIG2_SHA256 = {
        "fig2_inner.csv": "c2806a073d66731277612c5c03974d1a8ea34a97168f321f23d4e24012e3b926",
        "fig2_outer.csv": "e6440e1d53a23cb5d634c3a5349f737228727e7144f16b70871fd0a877738f86",
        "fig2.svg": "b9d951a85e233760821e184074a4e38a6b02b0c2cbbdf393110706e1fb95b9cb",
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

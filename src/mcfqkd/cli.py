"""Command-line front end.

Verbs:

* ``simulate``   - generate per-pair timetag files plus a ground-truth JSON
* ``analyze``    - run the coincidence chain on a simulate output directory
* ``linkbudget`` - key rate versus fiber length as CSV
* ``stability``  - long-term alternating-basis protocol as CSV + JSON
* ``reproduce``  - bundled reference scenarios (fig2 / fig3) as CSV + SVG

Every command exits non-zero on any error and zero only on full success; a
bad option value exits 2 naming the option.  ``simulate`` and ``analyze`` run
their pairs on ``runner.parallel_map``, whose pool ``MCFQKD_THREADS`` caps;
results do not depend on it.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    coerce,
    dumps_config,
    load_config,
    loads_config,
    preset,
    preset_inner,
    preset_outer,
    preset_stability,
    selected_pairs,
)
from .linkbudget import (
    max_positive_length,
    model_from_config,
    sweep_lengths,
)
from .photonsim import PS_PER_S
from .runner import (
    KeyRateReport,
    MeasurementSchedule,
    PairReport,
    ScheduleSegment,
    analyze_segment,
    pair_report,
    parallel_map,
    run_stability,
    scan_schedule,
    simulate_segment,
)
from .tagio import CHANNEL_ALICE, CHANNEL_BOB, TagFormatError, last_tag_time, read_timetags
from .tagio import write_timetags

META_FILENAME = "ground_truth.json"

#: exact public contract for the linkbudget sweep CSV
LINKBUDGET_CSV_HEADER = ["length_km", "coin_rate", "qber", "skr_pair_bits_s", "skr_ring_bits_s"]

STABILITY_CSV_HEADER = [
    "slot",
    "time_hours",
    "basis",
    "coincidence_rate_cps",
    "visibility",
    "qber",
    "skr_bits_s",
    "skr_clamped_bits_s",
    "drift_offset_deg",
]

REPORT_CSV_HEADER = [
    "pair_id",
    "ring",
    "c_hv_cps",
    "c_da_cps",
    "visibility_hv",
    "visibility_da",
    "qber_hv",
    "qber_da",
    "accidentals_hv",
    "accidentals_da",
    "skr_bits_s",
    "skr_clamped_bits_s",
]


class CliError(Exception):
    """Raised for user-facing command failures."""


def _load_run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif getattr(args, "preset", None):
        cfg = preset(args.preset)
    else:
        raise CliError("either --config or --preset is required")
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.validate()
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: List[str], rows: List[List]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pairs = selected_pairs(cfg)
    schedule = scan_schedule(cfg)

    meta: Dict = {
        "format": "mcfqkd-run-meta",
        "version": 1,
        "seed": cfg.seed,
        "config": json.loads(dumps_config(cfg)),
        "schedule": [asdict(seg) for seg in schedule.segments],
        "files": {
            str(p.pair_id): {role: f"pair{p.pair_id}_{role}.mcqt" for role in ("alice", "bob")}
            for p in pairs
        },
    }

    def work(pair) -> Dict:
        names = meta["files"][str(pair.pair_id)]
        truth_entry: Dict = {
            "ring": pair.ring,
            "coupling_prob": pair.coupling_prob,
            "emitted": 0,
            "true_coincidences": {},
        }
        for idx, segment in enumerate(schedule.segments):
            sim = simulate_segment(cfg, pair, segment, idx, 0.0)
            streams = sim.streams[pair.pair_id]
            write_timetags(out_dir / names["alice"], streams.alice, CHANNEL_ALICE, append=idx > 0)
            write_timetags(out_dir / names["bob"], streams.bob, CHANNEL_BOB, append=idx > 0)
            pt = sim.truth.pairs[pair.pair_id]
            truth_entry["emitted"] += pt.emitted
            truth_entry["true_coincidences"][segment.basis] = pt.true_coincidences
            del sim, streams  # freed before the next segment is simulated
        return truth_entry

    meta["truth"] = {"per_pair": dict(zip(meta["files"], parallel_map(work, pairs)))}

    _write_json(out_dir / META_FILENAME, meta)
    print(f"simulate: wrote {2 * len(pairs)} timetag files to {out_dir}")
    return 0


# ----------------------------------------------------------------- analyze


def _load_meta(in_dir: Path) -> Tuple[Dict, Tuple[ScheduleSegment, ...], RunConfig]:
    """The run metadata of a simulate output directory, its schedule's
    segments and its config; every failure names the file."""
    meta_path = in_dir / META_FILENAME
    if not meta_path.exists():
        raise CliError(f"missing {META_FILENAME} in {in_dir}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"{meta_path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != "mcfqkd-run-meta":
        raise CliError(f"{meta_path} is not a run metadata file")
    for key in ("version", "config", "schedule", "files", "truth"):
        if key not in meta:
            raise CliError(f"{meta_path}: missing key {key!r}")
    if type(meta["version"]) is not int or meta["version"] != 1:
        raise CliError(f"{meta_path}: version: expected 1, got {meta['version']!r}")
    segments = coerce(meta["schedule"], Tuple[ScheduleSegment, ...], f"{meta_path}: schedule")
    try:
        MeasurementSchedule(segments)
    except ValueError as exc:
        raise CliError(f"{meta_path}: {exc}") from exc
    for idx, seg in enumerate(segments):
        if seg.basis in [earlier.basis for earlier in segments[:idx]]:
            raise CliError(f"{meta_path}: schedule[{idx}].basis: {seg.basis!r} is measured twice")
    per_pair = meta["truth"].get("per_pair") if isinstance(meta["truth"], dict) else None
    if not isinstance(meta["files"], dict):
        raise CliError(f"{meta_path}: files: expected an object")
    for pair_id, files in meta["files"].items():
        where = f"{meta_path}: files.{pair_id}"
        if not pair_id.isdecimal():
            raise CliError(f"{where}: pair id is not a decimal integer")
        roles = files if isinstance(files, dict) else {}
        if not all(isinstance(roles.get(k), str) for k in ("alice", "bob")):
            raise CliError(f"{where}: expected an object with string 'alice' and 'bob'")
        if not isinstance(per_pair, dict) or pair_id not in per_pair:
            raise CliError(f"{meta_path}: truth.per_pair: no entry for pair {pair_id}")
        truth = per_pair[pair_id]
        if not (isinstance(truth, dict) and {"ring", "true_coincidences"} <= truth.keys()):
            raise CliError(f"{where}: truth.per_pair entry needs 'ring' and 'true_coincidences'")
        entry = f"{meta_path}: truth.per_pair.{pair_id}"
        if truth["ring"] not in ("inner", "outer"):
            raise CliError(f"{entry}.ring: expected 'inner' or 'outer', got {truth['ring']!r}")
        counts = coerce(truth["true_coincidences"], Dict[str, int], f"{entry}.true_coincidences")
        if not counts.keys() <= {"HV", "DA"}:
            raise CliError(f"{entry}.true_coincidences: keys must be HV/DA, got {sorted(counts)}")
        for seg in segments:
            if seg.basis not in counts:
                raise CliError(f"{entry}.true_coincidences: no count for basis {seg.basis!r}")
    try:
        return meta, segments, loads_config(json.dumps(meta["config"]))
    except ConfigError as exc:
        raise CliError(f"{meta_path}: config: {exc}") from exc


def cmd_analyze(args) -> int:
    in_dir = Path(getattr(args, "in_dir"))
    meta, segments, cfg = _load_meta(in_dir)
    if getattr(args, "window_ps", None) is not None:
        cfg.analysis.window_ps = args.window_ps
        cfg.validate()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    truth = meta["truth"]["per_pair"]
    pair_ids = sorted(meta["files"], key=int)
    ranges = {pid: _segment_ranges(in_dir, meta["files"][pid], pid, segments) for pid in pair_ids}

    def work(pair_id: str) -> Tuple[PairReport, Dict[str, int]]:
        files = meta["files"][pair_id]
        per_basis = {
            seg.basis: analyze_segment(
                *(read_timetags(in_dir / files[role], start, end)[0] for role in ("alice", "bob")),
                seg,
                cfg,
            )
            for seg, (start, end) in zip(segments, ranges[pair_id])
        }
        ring = truth[pair_id]["ring"]
        report = pair_report(int(pair_id), ring, per_basis, cfg.keyrate.ec_efficiency)
        return report, {basis: r.counts.total for basis, r in per_basis.items()}

    results = parallel_map(work, pair_ids)
    truth_compare = {
        pid: {"analyzed": counts, "ground_truth": truth[pid]["true_coincidences"]}
        for pid, (_, counts) in zip(pair_ids, results)
    }

    report = KeyRateReport(
        ring=cfg.ring, ec_efficiency=cfg.keyrate.ec_efficiency, pairs=[r for r, _ in results]
    )
    payload = {
        "ring": report.ring,
        "ec_efficiency": report.ec_efficiency,
        "total_bits_s": report.total_bits_s,
        "mean_qber": None if np.isnan(report.mean_qber) else report.mean_qber,
        "pairs": [asdict(p) for p in report.pairs],
        "truth_comparison": truth_compare,
    }
    _write_json(out_dir / "report.json", payload)
    _write_csv(
        out_dir / "report.csv",
        REPORT_CSV_HEADER,
        [
            [
                p.pair_id,
                p.ring,
                _fmt(p.hv.coincidence_rate_cps),
                _fmt(p.da.coincidence_rate_cps),
                _fmt(p.hv.visibility),
                _fmt(p.da.visibility),
                _fmt(p.hv.qber),
                _fmt(p.da.qber),
                p.hv.accidental_count,
                p.da.accidental_count,
                _fmt(p.skr_bits_s),
                _fmt(p.skr_clamped_bits_s),
            ]
            for p in report.pairs
        ],
    )
    print(
        f"analyze: {len(report.pairs)} pairs, total {report.total_bits_s:.1f} bits/s, "
        f"mean QBER {report.mean_qber:.4f}"
    )
    return 0


def _segment_ranges(in_dir: Path, files: Dict, pair_id: str, segments) -> List[Tuple]:
    """Each segment's ``[start_ps, end_ps)`` in a pair's files, whose channel
    ids must match their roles.  Streams that end far apart are cut at the
    earlier end, with a warning; coincidence rates still use the nominal
    durations, so a truncated stream shows as a low rate, not a shifted one.
    """
    (end_a, ch_a), (end_b, ch_b) = (last_tag_time(in_dir / files[r]) for r in ("alice", "bob"))
    for role, channel, want in (("alice", ch_a, CHANNEL_ALICE), ("bob", ch_b, CHANNEL_BOB)):
        if channel != want:
            path = in_dir / files[role]
            raise TagFormatError(path, f"channel id {channel} is not the {role} stream's {want}", 6)
    starts = [seg.start_ps for seg in segments]
    span = segments[-1].start_ps + segments[-1].duration_ps
    if end_a is None or end_b is None or abs(end_a - end_b) <= max(0.01 * span, 1e9):
        return list(zip(starts, starts[1:] + [None]))
    warnings.warn(
        f"pair {pair_id}: stream durations differ "
        f"({end_a / PS_PER_S:.3f} s vs {end_b / PS_PER_S:.3f} s); "
        "analyzing the overlap",
        RuntimeWarning,
        stacklevel=2,
    )
    cutoff = min(end_a, end_b) + 1
    # the analysis never loads the longer stream's records past the cutoff; check their order
    path = in_dir / files["alice" if end_a > end_b else "bob"]
    tail = read_timetags(path, cutoff)[0]
    down = np.flatnonzero(tail["time_ps"][1:] < tail["time_ps"][:-1])
    if down.size:
        offset = path.stat().st_size - (tail.size - int(down[0])) * tail.itemsize
        raise TagFormatError(path, "times decrease after this record", offset)
    return [(start, min(end, cutoff)) for start, end in zip(starts, starts[1:] + [cutoff])]


# -------------------------------------------------------------- linkbudget


def _sweep_rows(points) -> List[List[str]]:
    return [
        [
            _fmt(pt.length_km),
            _fmt(pt.coin_rate_cps),
            _fmt(pt.qber),
            _fmt(pt.skr_pair_bits_s),
            _fmt(pt.skr_ring_bits_s),
        ]
        for pt in points
    ]


def cmd_linkbudget(args) -> int:
    cfg = _load_run_config(args)
    model = model_from_config(cfg)
    points = sweep_lengths(model, args.lmax_km, args.step_km)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, LINKBUDGET_CSV_HEADER, _sweep_rows(points))
    try:
        reach = max_positive_length(model)
        reach_text = f"{reach:.1f} km"
    except ValueError:
        reach_text = "none (already non-positive at reference)"
    print(f"linkbudget: {len(points)} grid points -> {out}; max positive length {reach_text}")
    return 0


# --------------------------------------------------------------- stability


def _stability_rows(points) -> List[List]:
    return [
        [
            p.slot,
            _fmt(p.time_hours),
            p.basis,
            _fmt(p.coincidence_rate_cps),
            _fmt(p.visibility),
            _fmt(p.qber),
            _fmt(p.skr_bits_s),
            _fmt(p.skr_clamped_bits_s),
            _fmt(p.drift_offset_deg),
        ]
        for p in points
    ]


def cmd_stability(args) -> int:
    cfg = _load_run_config(args)
    points = run_stability(cfg, args.hours, args.switch_min, args.acquisition_s)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "stability.csv", STABILITY_CSV_HEADER, _stability_rows(points))
    _write_json(out_dir / "stability.json", [asdict(p) for p in points])
    qbers = [p.qber for p in points if p.qber is not None]
    print(
        f"stability: {len(points)} slots over {args.hours} h; "
        f"mean QBER {float(np.mean(qbers)):.4f}, "
        f"mean key rate {float(np.mean([p.skr_bits_s for p in points])):.0f} bits/s"
    )
    return 0


# --------------------------------------------------------------- reproduce


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.figure == "fig2":
        return _reproduce_fig2(out_dir)
    return _reproduce_fig3(out_dir, args.hours)


def _reproduce_fig2(out_dir: Path) -> int:
    from .svgplot import Marker, Series, line_chart

    curves = {}
    for name, cfg in (("inner", preset_inner()), ("outer", preset_outer())):
        model = model_from_config(cfg)
        points = sweep_lengths(model, 250.0, 1.0)
        _write_csv(out_dir / f"fig2_{name}.csv", LINKBUDGET_CSV_HEADER, _sweep_rows(points))
        curves[name] = (model, points)

    series = [
        Series(
            name=f"{name} ring (model)",
            xs=[p.length_km for p in pts],
            ys=[p.skr_ring_bits_s for p in pts],
            color="#2a7a2a" if name == "inner" else "#e08020",
        )
        for name, (_, pts) in curves.items()
    ]
    markers = [
        Marker(0.411, 7300.0, "7.3 kbit/s at 411 m", "#2a7a2a"),
        Marker(0.411, 34_500.0, "34.5 kbit/s at 411 m", "#e08020"),
    ]
    line_chart(
        out_dir / "fig2.svg",
        series,
        title="Secret key rate vs multicore fiber length",
        x_label="fiber length (km)",
        y_label="ring secret key rate (bits/s)",
        markers=markers,
        y_log=True,
    )
    for name, (model, _) in curves.items():
        print(f"reproduce fig2: {name} max positive length {max_positive_length(model):.1f} km")
    print(f"reproduce fig2: wrote CSV + SVG to {out_dir}")
    return 0


def _reproduce_fig3(out_dir: Path, hours: float) -> int:
    from .svgplot import Series, line_chart

    cfg = preset_stability()
    points = run_stability(cfg, total_hours=hours, switch_minutes=30.0, acquisition_s=60.0)
    _write_csv(out_dir / "fig3.csv", STABILITY_CSV_HEADER, _stability_rows(points))
    times = [p.time_hours for p in points]
    line_chart(
        out_dir / "fig3_qber.svg",
        [Series("QBER (%)", times, [100.0 * p.qber for p in points], "#2060c0")],
        title="QBER stability over one core pair",
        x_label="time (hours)",
        y_label="QBER (%)",
    )
    line_chart(
        out_dir / "fig3_keyrate.svg",
        [Series("key rate (kbit/s)", times, [p.skr_bits_s / 1e3 for p in points], "#2a7a2a")],
        title="Key rate stability over one core pair",
        x_label="time (hours)",
        y_label="secret key rate (kbit/s)",
    )
    print(f"reproduce fig3: {len(points)} points over {hours} h -> {out_dir}")
    return 0


# -------------------------------------------------------------------- main


def _positive(text: str) -> float:
    """A finite number > 0, for argparse ``type=``; errors name the option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfqkd",
        description="Entanglement QKD over opposite multicore-fiber cores: "
        "simulation, coincidence analysis and key-rate estimation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="run configuration JSON")
        p.add_argument(
            "--preset",
            choices=["inner", "outer", "stability"],
            help="bundled calibrated configuration",
        )
        p.add_argument("--seed", type=int, help="override the configured seed")

    p = sub.add_parser("simulate", help="generate timetag files")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="analyze a simulate output directory")
    p.add_argument("--in", dest="in_dir", required=True, help="simulate output directory")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument("--window-ps", type=int, help="override the coincidence window")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("linkbudget", help="key rate versus fiber length")
    add_config_args(p)
    p.add_argument("--lmax-km", type=_positive, default=250.0)
    p.add_argument("--step-km", type=_positive, default=1.0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_linkbudget)

    p = sub.add_parser("stability", help="long-term alternating-basis run")
    add_config_args(p)
    p.add_argument("--hours", type=_positive, default=24.0)
    p.add_argument("--switch-min", type=_positive, default=30.0)
    p.add_argument("--acquisition-s", type=_positive, default=60.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("reproduce", help="bundled reference scenarios")
    p.add_argument("figure", choices=["fig2", "fig3"])
    p.add_argument("--hours", type=_positive, default=24.0, help="fig3 duration")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Verbs:

* ``simulate``   - generate per-pair timetag files plus a ground-truth JSON
* ``analyze``    - run the coincidence chain on a simulate output directory
* ``linkbudget`` - key rate versus fiber length as CSV
* ``stability``  - long-term alternating-basis protocol as CSV + JSON
* ``reproduce``  - bundled reference scenarios (fig2 / fig3) as CSV + SVG

Every command exits non-zero on any error and zero only on full success; a
bad option value exits 2 naming the option.  A verb makes its output directory
only after its results are computed, so a failure leaves none; ``simulate``,
which appends to its tag files as it goes, once its pairs and schedule are
known.  ``simulate`` runs its pairs and ``analyze`` each (pair, segment) on
``runner.parallel_map``, which sets the heap policy and whose pool
``MCFQKD_THREADS`` caps; results do not depend on it.  ``simulate`` writes the
run's config and the per-pair truth to ``ground_truth.json``; ``analyze``
derives the schedule and each pair's tag files (``pair{id}_{alice,bob}.mcqt``)
from it, as ``simulate`` did.  Each CSV table is one ``_write_csv`` column map.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import operator
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
from .geometry import CorePair
from .linkbudget import (
    LengthCurve,
    max_positive_length,
    model_from_config,
    sweep_lengths,
)
from .photonsim import ANALYZER_ANGLE_DEG, PS_PER_S, ScheduleSegment, Stream
from .runner import (
    parallel_map,
    run_stability,
    scan,
    scan_schedule,
    simulate_segment,
)
from .tagio import CHANNEL_ALICE, CHANNEL_BOB, TagFormatError, last_tag_time, read_timetags
from .tagio import write_timetags

META_FILENAME = "ground_truth.json"

#: each CSV table: its columns in order, each with the attribute (dotted for
#: a nested one) of the row's item that fills it
LINKBUDGET_COLUMNS = {
    "length_km": "length_km",
    "coin_rate": "coin_rate_cps",
    "qber": "qber",
    "skr_pair_bits_s": "skr_pair_bits_s",
    "skr_ring_bits_s": "skr_ring_bits_s",
}
STABILITY_COLUMNS = {
    name: name
    for name in (
        "slot", "time_hours", "basis", "coincidence_rate_cps", "visibility", "qber",
        "skr_bits_s", "skr_clamped_bits_s", "drift_offset_deg",
    )
}
REPORT_COLUMNS = {
    "pair_id": "pair_id",
    "ring": "ring",
    "c_hv_cps": "hv.coincidence_rate_cps",
    "c_da_cps": "da.coincidence_rate_cps",
    "visibility_hv": "hv.visibility",
    "visibility_da": "da.visibility",
    "qber_hv": "hv.qber",
    "qber_da": "da.qber",
    "accidentals_hv": "hv.accidentals.count",
    "accidentals_da": "da.accidentals.count",
    "skr_bits_s": "skr_bits_s",
    "skr_clamped_bits_s": "skr_clamped_bits_s",
}

#: exact public contract for the linkbudget sweep CSV
LINKBUDGET_CSV_HEADER = list(LINKBUDGET_COLUMNS)


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


def _write_csv(path: Path, columns: Dict[str, str], items) -> None:
    """The header of ``columns``, then one row per item, or per grid length
    of a ``LengthCurve``, whose attributes are whole columns: a float cell is
    its ``repr``, ``None`` an empty cell, and anything else is written as it is."""
    cells = operator.attrgetter(*columns.values())
    if isinstance(items, LengthCurve):
        rows = zip(*(column.tolist() for column in cells(items)))
    else:
        rows = map(cells, items)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                "" if v is None else repr(float(v)) if isinstance(v, float) else v
                for v in row
            )


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    pairs = selected_pairs(cfg)
    schedule = scan_schedule(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(pair) -> Dict:
        files = _tag_files(out_dir, pair.pair_id)
        truth_entry: Dict = {
            "coupling_prob": pair.coupling_prob,
            "emitted": 0,
            "true_coincidences": {},
        }
        for idx, segment in enumerate(schedule):
            alice, bob, truth = simulate_segment(cfg, pair, segment, idx, 0.0)
            write_timetags(files["alice"], alice, append=idx > 0)
            write_timetags(files["bob"], bob, append=idx > 0)
            truth_entry["emitted"] += truth.emitted
            truth_entry["true_coincidences"][segment.basis] = truth.true_coincidences
            del alice, bob  # freed before the next segment is simulated
        return truth_entry

    truth = dict(zip((str(p.pair_id) for p in pairs), parallel_map(work, pairs)))
    meta = {
        "format": "mcfqkd-run-meta",
        "version": 1,
        "config": json.loads(dumps_config(cfg)),
        "truth": {"per_pair": truth},
    }
    _write_json(out_dir / META_FILENAME, meta)
    print(f"simulate: wrote {2 * len(pairs)} timetag files to {out_dir}")
    return 0


# ----------------------------------------------------------------- analyze


def _tag_files(run_dir: Path, pair_id: int) -> Dict[str, Path]:
    """A pair's Alice and Bob tag files in a simulate output directory."""
    return {role: run_dir / f"pair{pair_id}_{role}.mcqt" for role in ("alice", "bob")}


def _load_meta(in_dir: Path) -> Tuple[Dict, RunConfig, Tuple[CorePair, ...]]:
    """The run metadata of a simulate output directory, its config and the
    pairs that config measures, each with its truth; every failure names the file."""
    meta_path = in_dir / META_FILENAME
    if not meta_path.exists():
        raise CliError(f"missing {META_FILENAME} in {in_dir}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"{meta_path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != "mcfqkd-run-meta":
        raise CliError(f"{meta_path} is not a run metadata file")
    for key in ("version", "config", "truth"):
        if key not in meta:
            raise CliError(f"{meta_path}: missing key {key!r}")
    if type(meta["version"]) is not int or meta["version"] != 1:
        raise CliError(f"{meta_path}: version: expected 1, got {meta['version']!r}")
    try:
        cfg = loads_config(json.dumps(meta["config"]))
    except ConfigError as exc:
        raise CliError(f"{meta_path}: config: {exc}") from exc
    pairs = selected_pairs(cfg)
    per_pair = meta["truth"].get("per_pair") if isinstance(meta["truth"], dict) else None
    for pair in pairs:
        if not isinstance(per_pair, dict) or str(pair.pair_id) not in per_pair:
            raise CliError(f"{meta_path}: truth.per_pair: no entry for pair {pair.pair_id}")
        truth, entry = per_pair[str(pair.pair_id)], f"{meta_path}: truth.per_pair.{pair.pair_id}"
        if not (isinstance(truth, dict) and "true_coincidences" in truth):
            raise CliError(f"{entry}: truth.per_pair entry needs 'true_coincidences'")
        counts = coerce(truth["true_coincidences"], Dict[str, int], f"{entry}.true_coincidences")
        if not counts.keys() <= ANALYZER_ANGLE_DEG.keys():
            bases = "/".join(ANALYZER_ANGLE_DEG)
            raise CliError(f"{entry}.true_coincidences: keys must be {bases}, got {sorted(counts)}")
        for basis in cfg.schedule.bases:
            if basis not in counts:
                raise CliError(f"{entry}.true_coincidences: no count for basis {basis!r}")
    return meta, cfg, pairs


def cmd_analyze(args) -> int:
    in_dir = Path(getattr(args, "in_dir"))
    meta, cfg, pairs = _load_meta(in_dir)
    if getattr(args, "window_ps", None) is not None:
        cfg.analysis.window_ps = args.window_ps
        cfg.validate()

    segments = scan_schedule(cfg)
    ranges = {p.pair_id: _segment_ranges(in_dir, p.pair_id, segments) for p in pairs}

    def stored(pair: CorePair, k: int, segment: ScheduleSegment) -> List[Stream]:
        files, (start, end) = _tag_files(in_dir, pair.pair_id), ranges[pair.pair_id][k]
        return [read_timetags(files[role], start, end)[0] for role in ("alice", "bob")]

    report = scan(cfg, pairs, segments, stored)
    truth_compare = {
        str(p.pair_id): {
            "analyzed": {s.basis: getattr(p, s.basis.lower()).counts.total for s in segments},
            "ground_truth": meta["truth"]["per_pair"][str(p.pair_id)]["true_coincidences"],
        }
        for p in report.pairs
    }
    payload = {
        "ring": report.ring,
        "ec_efficiency": report.ec_efficiency,
        "total_bits_s": report.total_bits_s,
        "mean_qber": None if np.isnan(report.mean_qber) else report.mean_qber,
        "pairs": [asdict(p) for p in report.pairs],
        "truth_comparison": truth_compare,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", payload)
    _write_csv(out_dir / "report.csv", REPORT_COLUMNS, report.pairs)
    print(
        f"analyze: {len(report.pairs)} pairs, total {report.total_bits_s:.1f} bits/s, "
        f"mean QBER {report.mean_qber:.4f}"
    )
    return 0


def _segment_ranges(in_dir: Path, pair_id: int, segments) -> List[Tuple]:
    """Each segment's ``[start_ps, end_ps)`` in a pair's files, whose channel
    ids must match their roles.  Streams that end far apart are cut at the
    earlier end, with a warning; coincidence rates still use the nominal
    durations, so a truncated stream shows as a low rate, not a shifted one.
    """
    files = _tag_files(in_dir, pair_id)
    (end_a, ch_a), (end_b, ch_b) = (last_tag_time(files[r]) for r in ("alice", "bob"))
    for role, channel, want in (("alice", ch_a, CHANNEL_ALICE), ("bob", ch_b, CHANNEL_BOB)):
        if channel != want:
            path = files[role]
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
    # the analysis never loads the longer stream's tail past the cutoff; a read checks its order
    read_timetags(files["alice" if end_a > end_b else "bob"], cutoff)
    return [(start, min(end, cutoff)) for start, end in zip(starts, starts[1:] + [cutoff])]


# -------------------------------------------------------------- linkbudget


def cmd_linkbudget(args) -> int:
    cfg = _load_run_config(args)
    model = model_from_config(cfg)
    curve = sweep_lengths(model, args.lmax_km, args.step_km)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, LINKBUDGET_COLUMNS, curve)
    try:
        reach = max_positive_length(model)
        reach_text = f"{reach:.1f} km"
    except ValueError:
        reach_text = "none (already non-positive at reference)"
    print(f"linkbudget: {len(curve)} grid points -> {out}; max positive length {reach_text}")
    return 0


# --------------------------------------------------------------- stability


def cmd_stability(args) -> int:
    cfg = _load_run_config(args)
    points = run_stability(cfg, args.hours, args.switch_min, args.acquisition_s)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "stability.csv", STABILITY_COLUMNS, points)
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
    if args.figure == "fig2":
        return _reproduce_fig2(out_dir)
    return _reproduce_fig3(out_dir, args.hours)


def _reproduce_fig2(out_dir: Path) -> int:
    from .svgplot import Marker, Series, line_chart

    curves = {}
    for name, cfg in (("inner", preset_inner()), ("outer", preset_outer())):
        model = model_from_config(cfg)
        curves[name] = (model, sweep_lengths(model, 250.0, 1.0))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (_, curve) in curves.items():
        _write_csv(out_dir / f"fig2_{name}.csv", LINKBUDGET_COLUMNS, curve)

    series = [
        Series(
            name=f"{name} ring (model)",
            xs=curve.length_km.tolist(),
            ys=curve.skr_ring_bits_s.tolist(),
            color="#2a7a2a" if name == "inner" else "#e08020",
        )
        for name, (_, curve) in curves.items()
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
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "fig3.csv", STABILITY_COLUMNS, points)
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

"""Measurement orchestration: basis scans, ring reports and stability runs.

The runner turns a configuration into simulated acquisitions, feeds each one
through the coincidence analysis, and aggregates per-pair visibilities,
QBERs and key rates into ring-level reports.  Every run is built from the
same pieces: ``config.selected_pairs`` picks the measured core pairs,
``acquire`` simulates and analyzes one (pair, segment) acquisition, which is
one ``simulate_run`` call with the configured link on both arms and one
analyzer setting, and ``pair_report`` turns a pair's per-basis results into
its key rate.  A schedule is a ``MeasurementSchedule`` of ``ScheduleSegment``
(basis, start and duration in the integer picoseconds of the tag files);
``simulate`` writes it to ``ground_truth.json`` and ``analyze`` parses it back
into the same type, whose checks are the only schedule checks.  Core pairs
and stability slots are independent acquisitions, so every loop over them,
here and in the CLI, runs on ``parallel_map``: one thread pool capped by
``MCFQKD_THREADS``, with results in input order.  Each acquisition derives its
own random stream from the seed, pair and segment index, so results do not
depend on the thread count or on how the pool schedules them.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coincidence import tally_basis
from .config import RunConfig, selected_pairs, worker_count
from .geometry import CorePair
from .photonsim import PS_PER_S, AnalyzerSetting, apply_polarization_drift, simulate_run
from .qkdmath import (
    BasisCounts,
    KeyRateInputs,
    UndefinedVisibilityError,
    qber_from_visibility,
    secret_key_rate,
    visibility_from_counts,
)

__all__ = [
    "ScheduleSegment",
    "MeasurementSchedule",
    "PairBasisResult",
    "PairReport",
    "KeyRateReport",
    "StabilityPoint",
    "scan_schedule",
    "parallel_map",
    "acquire",
    "pair_report",
    "run_basis_scan",
    "simulate_segment",
    "run_stability",
    "analyze_segment",
]

_BASIS_SETTINGS = {"HV": AnalyzerSetting.hv(), "DA": AnalyzerSetting.da()}


def parallel_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` on a pool of ``worker_count(len(items))`` threads."""
    with ThreadPoolExecutor(max_workers=worker_count(len(items))) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ScheduleSegment:
    basis: str
    start_ps: int
    duration_ps: int

    def __post_init__(self) -> None:
        if self.basis not in _BASIS_SETTINGS:
            raise ValueError(f"basis must be 'HV' or 'DA', got {self.basis!r}")
        if self.duration_ps <= 0:
            raise ValueError(f"duration_ps must be > 0, got {self.duration_ps}")


@dataclass(frozen=True)
class MeasurementSchedule:
    segments: Tuple[ScheduleSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule: has no segments")
        end = 0
        for i, seg in enumerate(self.segments):
            if seg.start_ps < end:
                raise ValueError(f"schedule[{i}]: start_ps must be >= {end}, got {seg.start_ps}")
            end = seg.start_ps + seg.duration_ps

    @classmethod
    def _acquisitions(
        cls, bases: Sequence[str], slot_s: float, acquisition_s: float
    ) -> "MeasurementSchedule":
        """One acquisition of ``acquisition_s`` at the start of each ``slot_s`` slot."""
        slot_ps, duration_ps = round(slot_s * PS_PER_S), round(acquisition_s * PS_PER_S)
        return cls(tuple(ScheduleSegment(b, k * slot_ps, duration_ps) for k, b in enumerate(bases)))

    @classmethod
    def stability(
        cls, total_hours: float, switch_minutes: float, acquisition_s: float
    ) -> "MeasurementSchedule":
        for name, value in dict(
            total_hours=total_hours, switch_minutes=switch_minutes, acquisition_s=acquisition_s
        ).items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if acquisition_s > switch_minutes * 60.0:
            raise ValueError("acquisition does not fit into one slot")
        n_slots = int(round(total_hours * 60.0 / switch_minutes))
        bases = ["HV" if k % 2 == 0 else "DA" for k in range(n_slots)]
        return cls._acquisitions(bases, switch_minutes * 60.0, acquisition_s)


@dataclass
class PairBasisResult:
    basis: str
    counts: BasisCounts
    duration_s: float
    coincidence_rate_cps: float
    visibility: Optional[float]
    qber: Optional[float]
    delay_ps: int
    accidental_count: int
    accidental_rate_analytic: float


@dataclass
class PairReport:
    pair_id: int
    ring: str
    hv: PairBasisResult
    da: PairBasisResult
    skr_bits_s: float
    skr_clamped_bits_s: float


@dataclass
class KeyRateReport:
    ring: str
    ec_efficiency: float
    pairs: List[PairReport] = field(default_factory=list)

    @property
    def total_bits_s(self) -> float:
        return sum(p.skr_clamped_bits_s for p in self.pairs)

    @property
    def mean_qber(self) -> float:
        values = [
            q
            for p in self.pairs
            for q in (p.hv.qber, p.da.qber)
            if q is not None
        ]
        return float(np.mean(values)) if values else math.nan


@dataclass
class StabilityPoint:
    slot: int
    time_hours: float
    basis: str
    coincidence_rate_cps: float
    visibility: Optional[float]
    qber: Optional[float]
    skr_bits_s: float
    skr_clamped_bits_s: float
    drift_offset_deg: float


def analyze_segment(
    alice_tags: np.ndarray, bob_tags: np.ndarray, segment: ScheduleSegment, cfg: RunConfig
) -> PairBasisResult:
    """Run the coincidence chain on one acquisition's two tag streams."""
    a = cfg.analysis
    tally = tally_basis(
        alice_tags,
        bob_tags,
        window_ps=a.window_ps,
        duration_s=segment.duration_ps / PS_PER_S,
        accidental_offset_ps=int(round(a.accidental_offset_windows * a.window_ps)),
        hist_bin_ps=a.hist_bin_ps,
        hist_range_ps=a.hist_range_ps,
    )
    counts = tally.counts
    try:
        visibility = visibility_from_counts(counts)
        qber = qber_from_visibility(visibility)
    except UndefinedVisibilityError:
        visibility = qber = None
    return PairBasisResult(
        basis=segment.basis,
        counts=counts,
        duration_s=tally.duration_s,
        coincidence_rate_cps=counts.total / tally.duration_s,
        visibility=visibility,
        qber=qber,
        delay_ps=tally.delay_ps,
        accidental_count=tally.accidentals.count,
        accidental_rate_analytic=tally.accidentals.analytic,
    )


def simulate_segment(
    cfg: RunConfig,
    pair: CorePair,
    segment: ScheduleSegment,
    segment_index: int,
    angle_offset_deg: float,
):
    """One (pair, segment) acquisition, on the stream of (seed, segment index, pair id)."""
    scale = cfg.schedule.rate_scales.get(segment.basis, 1.0)
    return simulate_run(
        replace(cfg.source, pair_rate=cfg.source.pair_rate * scale),
        pair,
        cfg.link,
        _BASIS_SETTINGS[segment.basis],
        segment.duration_ps / PS_PER_S,
        seed=cfg.seed,
        segment_index=segment_index,
        angle_offset_deg=angle_offset_deg,
        time_offset_ps=segment.start_ps,
    )


def acquire(
    cfg: RunConfig,
    pair: CorePair,
    segment: ScheduleSegment,
    segment_index: int,
    angle_offset_deg: float,
) -> PairBasisResult:
    """Simulate and analyze one (pair, segment) acquisition; its tag streams
    are freed on return, so a segment loop holds one acquisition at a time."""
    streams = simulate_segment(cfg, pair, segment, segment_index, angle_offset_deg).streams[
        pair.pair_id
    ]
    return analyze_segment(streams.alice, streams.bob, segment, cfg)


def pair_report(
    pair_id: int, ring: str, per_basis: Dict[str, PairBasisResult], ec_efficiency: float
) -> PairReport:
    """Key rate of one pair from its latest result in each basis; a basis
    that was not measured stands in for the other one."""
    hv = per_basis.get("HV") or next(iter(per_basis.values()))
    da = per_basis.get("DA", hv)
    skr = 0.0
    if hv.qber is not None and da.qber is not None:
        skr = secret_key_rate(
            KeyRateInputs(
                coin_rate_hv=hv.coincidence_rate_cps,
                coin_rate_da=da.coincidence_rate_cps,
                qber_hv=min(hv.qber, 0.5),
                qber_da=min(da.qber, 0.5),
                ec_efficiency=ec_efficiency,
            )
        )
    return PairReport(
        pair_id=pair_id, ring=ring, hv=hv, da=da, skr_bits_s=skr, skr_clamped_bits_s=max(0.0, skr)
    )


def scan_schedule(cfg: RunConfig) -> MeasurementSchedule:
    """One acquisition per configured basis, back to back."""
    acquisition_s = cfg.schedule.acquisition_s
    return MeasurementSchedule._acquisitions(cfg.schedule.bases, acquisition_s, acquisition_s)


def run_basis_scan(cfg: RunConfig) -> KeyRateReport:
    """Measure every selected pair in both bases and aggregate the ring.

    Each pair is acquired for the configured time in the HV and DA bases,
    analyzed to visibility, QBER and coincidence rate, and scored with the
    key-rate formula; the ring total sums the per-pair rates clamped at
    zero.
    """
    schedule = scan_schedule(cfg)

    def work(pair: CorePair) -> PairReport:
        per_basis = {
            segment.basis: acquire(cfg, pair, segment, idx, 0.0)
            for idx, segment in enumerate(schedule.segments)
        }
        return pair_report(pair.pair_id, pair.ring, per_basis, cfg.keyrate.ec_efficiency)

    reports = parallel_map(work, selected_pairs(cfg))
    return KeyRateReport(ring=cfg.ring, ec_efficiency=cfg.keyrate.ec_efficiency, pairs=reports)


def run_stability(
    cfg: RunConfig,
    total_hours: float = 24.0,
    switch_minutes: float = 30.0,
    acquisition_s: float = 60.0,
) -> List[StabilityPoint]:
    """Long-term protocol on the first selected pair: one acquisition per slot, alternating bases.

    Emits one (QBER, key rate) point per slot.  The key rate combines the
    current slot with the most recent acquisition of the other basis; the
    very first slot reuses itself for both bases until the second basis has
    been measured.  Polarization drift accumulates across the run as a
    reflected random walk sampled at each slot start.
    """
    pair = selected_pairs(cfg)[0]

    schedule = MeasurementSchedule.stability(total_hours, switch_minutes, acquisition_s)
    n_slots = len(schedule.segments)
    # from the slot starts in float seconds, not from their rounded start_ps
    slot_hours = np.array([k * switch_minutes * 60.0 / 3600.0 for k in range(n_slots)])
    offsets = apply_polarization_drift(
        slot_hours, cfg.drift.rate_deg_per_hour, cfg.seed, cfg.drift.max_offset_deg
    )

    def work(k: int) -> PairBasisResult:
        return acquire(cfg, pair, schedule.segments[k], k, float(offsets[k]))

    # the slots run on the pool; pairing each with the latest result in the
    # other basis is a serial pass over them in slot order
    results = parallel_map(work, range(n_slots))

    points: List[StabilityPoint] = []
    latest: Dict[str, PairBasisResult] = {}
    for k, (segment, result) in enumerate(zip(schedule.segments, results)):
        latest[segment.basis] = result
        report = pair_report(pair.pair_id, pair.ring, latest, cfg.keyrate.ec_efficiency)
        points.append(
            StabilityPoint(
                slot=k,
                time_hours=float(slot_hours[k]),
                basis=segment.basis,
                coincidence_rate_cps=result.coincidence_rate_cps,
                visibility=result.visibility,
                qber=result.qber,
                skr_bits_s=report.skr_bits_s,
                skr_clamped_bits_s=report.skr_clamped_bits_s,
                drift_offset_deg=float(offsets[k]),
            )
        )
    return points

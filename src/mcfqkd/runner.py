"""Measurement orchestration: basis scans, ring reports and stability runs.

The runner turns a configuration into simulated acquisitions, feeds each one
through the coincidence analysis, and aggregates per-pair visibilities,
QBERs and key rates into ring-level reports.  Every run is built from the
same pieces: ``config.selected_pairs`` picks the measured core pairs,
``simulate_segment`` simulates one (pair, segment) acquisition, which is one
``simulate_run`` call with the configured link on both arms and one analyzer
setting, ``analyze_segment`` analyzes its two streams, and ``pair_report``
turns a pair's per-basis results into its key rate; ``scan`` is the loop of
both over a ring, on streams that the basis scan simulates or ``analyze``
reads.  A schedule is a tuple of ``ScheduleSegment`` (basis, start and
duration in the integer picoseconds of the tag files) from ``scan_schedule``,
which ``simulate`` and ``analyze`` both derive from the run's config, or from
``stability_schedule``.  Acquisitions are independent, so every loop over them,
here and in the CLI, runs on ``parallel_map``: one thread pool capped by
``MCFQKD_THREADS`` and kept for the process, with results in input order.  The
pool's unit is one acquisition: a scan hands it one item per (pair, segment) and
folds the tallies per pair after, a stability run one per slot.  Each
acquisition derives its own random stream from the seed, pair and segment
index, so results do not depend on the thread count or on how the pool
schedules them.  Under glibc, ``parallel_map`` first keeps the heap each
acquisition frees for the next (``_keep_freed_heap``); nothing else sets an
allocator policy, and importing a module sets none.
"""
from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coincidence import BasisTally, tally_basis
from .config import RunConfig, selected_pairs, worker_count
from .geometry import CorePair
from .photonsim import PS_PER_S, TIME_LIMIT_PS, PairTruth, ScheduleSegment, Stream, simulate_run
from .photonsim import acquisitions, apply_polarization_drift
from .qkdmath import KeyRateInputs, secret_key_rate

__all__ = [
    "PairReport",
    "KeyRateReport",
    "StabilityPoint",
    "scan_schedule",
    "stability_schedule",
    "parallel_map",
    "pair_report",
    "scan",
    "run_basis_scan",
    "simulate_segment",
    "run_stability",
    "analyze_segment",
]


def _keep_freed_heap() -> None:
    """Under glibc, serve blocks below 32 MiB from the heap and keep up to
    64 MiB of freed heap mapped, so that each acquisition reuses the pages of
    the time arrays, match buffer and block temporaries the previous one
    freed instead of faulting them in again.  The trim threshold is set only
    once the mmap threshold is: set alone, it freezes glibc's dynamic mmap
    threshold at 128 KiB.  On another libc this does nothing."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(-3, 32 * 2**20) == 1:  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD (malloc.h)
        mallopt(-1, 64 * 2**20)


#: the pools by process id and thread cap, whose threads outlive each call and so keep
#: their glibc arenas: a new thread may take a fresh one while the last is still exiting
_POOLS: Dict[Tuple[int, int], ThreadPoolExecutor] = {}
_IN_POOL = threading.local()  # ``.worker`` is set in a pool's threads


def parallel_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` on the process's pool of ``worker_count`` threads,
    or in the calling thread if it is one of them, which would wait on itself.

    As on leaving a pool's ``with``, no item still runs when this returns or raises."""
    _keep_freed_heap()
    if getattr(_IN_POOL, "worker", False):
        return [fn(item) for item in items]
    key = (os.getpid(), worker_count(sys.maxsize))  # a forked child starts its own
    pool = _POOLS.get(key) or _POOLS.setdefault(
        key, ThreadPoolExecutor(key[1], initializer=setattr, initargs=(_IN_POOL, "worker", True))
    )
    futures = [pool.submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def stability_schedule(
    total_hours: float, switch_minutes: float, acquisition_s: float
) -> Tuple[ScheduleSegment, ...]:
    """One acquisition at the start of each ``switch_minutes`` slot, alternating HV and DA."""
    for name, value in dict(total_hours=total_hours, switch_minutes=switch_minutes).items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if acquisition_s > switch_minutes * 60.0:
        raise ValueError(
            f"acquisition_s {acquisition_s} does not fit into one slot"
            f" of switch_minutes {switch_minutes}"
        )
    what = f"total_hours {total_hours}, switch_minutes {switch_minutes}"
    if not total_hours * 60.0 / switch_minutes < math.inf:  # each finite, the ratio not
        raise ValueError(f"slot count not finite: {what}")
    n_slots = int(round(total_hours * 60.0 / switch_minutes))
    if n_slots == 0:
        raise ValueError(f"no slot: {what}")
    slot_ps = switch_minutes * 60.0 * PS_PER_S  # checked before the slots are listed
    if not slot_ps < TIME_LIMIT_PS or n_slots * round(slot_ps) > TIME_LIMIT_PS:
        raise ValueError(f"last slot ends past 2**60 ps: {what}")
    bases = ["HV" if k % 2 == 0 else "DA" for k in range(n_slots)]
    return acquisitions(bases, switch_minutes * 60.0, acquisition_s)


@dataclass
class PairReport:
    pair_id: int
    ring: str
    hv: BasisTally
    da: BasisTally
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
    alice: Stream, bob: Stream, segment: ScheduleSegment, cfg: RunConfig
) -> BasisTally:
    """Run the coincidence chain, on the tally's own grid, on one acquisition's two streams."""
    duration_s = segment.duration_ps / PS_PER_S
    return tally_basis(alice, bob, window_ps=cfg.analysis.window_ps, duration_s=duration_s)


def simulate_segment(
    cfg: RunConfig,
    pair: CorePair,
    segment: ScheduleSegment,
    segment_index: int,
    angle_offset_deg: float,
) -> Tuple[Stream, Stream, PairTruth]:
    """One (pair, segment) acquisition's Alice and Bob streams and its ground truth."""
    scale = cfg.schedule.rate_scales.get(segment.basis, 1.0)
    sim = simulate_run(
        replace(cfg.source, pair_rate=cfg.source.pair_rate * scale),
        pair,
        cfg.link,
        segment,
        seed=cfg.seed,
        segment_index=segment_index,
        angle_offset_deg=angle_offset_deg,
    )
    streams = sim.streams[pair.pair_id]
    return streams.alice, streams.bob, sim.truth.pairs[pair.pair_id]


def pair_report(
    pair_id: int, ring: str, per_basis: Dict[str, BasisTally], ec_efficiency: float
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


def scan_schedule(cfg: RunConfig) -> Tuple[ScheduleSegment, ...]:
    """One acquisition per configured basis, back to back, in the configured order."""
    acquisition_s = cfg.schedule.acquisition_s
    return acquisitions(cfg.schedule.bases, acquisition_s, acquisition_s)


def scan(cfg: RunConfig, pairs: Sequence[CorePair], segments, streams: Callable) -> KeyRateReport:
    """The ring report of ``pairs`` analyzed per segment on the (Alice, Bob) streams
    of ``streams(pair, k, segments[k])``, one (pair, segment) acquisition per pool item."""

    def work(item: Tuple[CorePair, int]) -> BasisTally:
        pair, k = item
        return analyze_segment(*streams(pair, k, segments[k]), segments[k], cfg)

    ec = cfg.keyrate.ec_efficiency
    tallies = iter(parallel_map(work, [(pair, k) for pair in pairs for k in range(len(segments))]))
    reports = [
        pair_report(pair.pair_id, pair.ring, {seg.basis: next(tallies) for seg in segments}, ec)
        for pair in pairs
    ]
    return KeyRateReport(ring=cfg.ring, ec_efficiency=ec, pairs=reports)


def run_basis_scan(cfg: RunConfig) -> KeyRateReport:
    """Measure every selected pair in both bases and aggregate the ring.

    Each pair is acquired for the configured time in the HV and DA bases,
    analyzed to visibility, QBER and coincidence rate, and scored with the
    key-rate formula; the ring total sums the per-pair rates clamped at
    zero.
    """

    def simulated(pair: CorePair, k: int, segment: ScheduleSegment) -> Tuple[Stream, Stream]:
        return simulate_segment(cfg, pair, segment, k, 0.0)[:2]

    return scan(cfg, selected_pairs(cfg), scan_schedule(cfg), simulated)


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

    schedule = stability_schedule(total_hours, switch_minutes, acquisition_s)
    n_slots = len(schedule)
    # from the slot starts in float seconds, not from their rounded start_ps
    slot_hours = np.array([k * switch_minutes * 60.0 / 3600.0 for k in range(n_slots)])
    offsets = apply_polarization_drift(
        slot_hours, cfg.drift.rate_deg_per_hour, cfg.seed, cfg.drift.max_offset_deg
    )

    def work(k: int) -> BasisTally:
        alice, bob, _ = simulate_segment(cfg, pair, schedule[k], k, float(offsets[k]))
        return analyze_segment(alice, bob, schedule[k], cfg)

    # the slots run on the pool; pairing each with the latest result in the
    # other basis is a serial pass over them in slot order
    results = parallel_map(work, range(n_slots))

    points: List[StabilityPoint] = []
    latest: Dict[str, BasisTally] = {}
    for k, (segment, result) in enumerate(zip(schedule, results)):
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

"""Monte Carlo generation of detector timetag streams for entangled pairs.

One call simulates one acquisition of one core pair: both photons cross the
same link and are analyzed at the same plate setting, with an optional drift
offset on Bob's analyzer.  Pair emission at the crystal is a Poisson process
thinned three ways: into the core pair (coupling probability), through the
link's transmission, and past the detector efficiency.  The thinning is
applied analytically before any event is materialized, which is
distribution-identical to simulating every crystal emission but keeps the
event count proportional to what the detectors actually see.  Crosstalk into
a neighboring core is modeled as loss: the photon leaves its own stream and
breaks its coincidence.  Every stream derives its randomness from (run seed,
pair id), so runs are reproducible bit for bit and core pairs can be
simulated in any order or in parallel.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .geometry import CorePair

__all__ = [
    "CH_ALICE_T",
    "CH_ALICE_R",
    "CH_BOB_T",
    "CH_BOB_R",
    "FLAG_DARK",
    "PS_PER_S",
    "TAG_DTYPE",
    "SourceParams",
    "LinkParams",
    "AnalyzerSetting",
    "PairStreams",
    "PairTruth",
    "GroundTruth",
    "SimulationResult",
    "joint_outcome_probs",
    "simulate_run",
    "apply_polarization_drift",
]

CH_ALICE_T, CH_ALICE_R, CH_BOB_T, CH_BOB_R = 0, 1, 2, 3

#: flags bit 0 marks a dark count when ground-truth emission is enabled
FLAG_DARK = 0x01

#: in-memory record layout, identical to the 16-byte on-disk record
TAG_DTYPE = np.dtype(
    [("time_ps", "<u8"), ("channel", "u1"), ("flags", "u1"), ("reserved", "V6")]
)

PS_PER_S = 1_000_000_000_000

# seed-sequence salt keeping the drift walk disjoint from the core-pair
# streams, which use the bare pair id
_DRIFT_SALT = 0x0D21F7


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source: emission rate and Werner-type visibility."""

    pair_rate: float
    visibility: float = 0.94
    temperature_c: float = 82.5

    def __post_init__(self) -> None:
        if self.pair_rate <= 0:
            raise ValueError("pair_rate must be > 0")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")


@dataclass(frozen=True)
class LinkParams:
    """Loss, detector and noise parameters of one arm; both arms of a core
    pair share them."""

    fiber_length_km: float = 0.411
    fiber_loss_db_per_km: float = 0.2
    system_loss_db: float = 0.0
    detector_efficiency: float = 1.0
    dark_rate_cps: float = 100.0
    jitter_sigma_ps: float = 50.0
    crosstalk_prob: float = 1e-4
    propagation_delay_ps: int = 0

    def __post_init__(self) -> None:
        for name in ("fiber_length_km", "fiber_loss_db_per_km", "system_loss_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in (0, 1]")
        if self.dark_rate_cps < 0:
            raise ValueError("dark_rate_cps must be >= 0")
        if self.jitter_sigma_ps < 0:
            raise ValueError("jitter_sigma_ps must be >= 0")
        if not 0.0 <= self.crosstalk_prob < 1.0:
            raise ValueError("crosstalk_prob must be in [0, 1)")

    @property
    def transmission(self) -> float:
        """Survival probability of a photon entering this arm."""
        loss_db = self.fiber_loss_db_per_km * self.fiber_length_km + self.system_loss_db
        return 10.0 ** (-loss_db / 10.0) * self.detector_efficiency


@dataclass(frozen=True)
class AnalyzerSetting:
    """Half-wave plate angle of one polarization analysis module."""

    hwp_angle_deg: float

    @property
    def analyzer_angle_deg(self) -> float:
        """Polarization-frame analyzer angle (twice the plate angle)."""
        return 2.0 * self.hwp_angle_deg

    @classmethod
    def hv(cls) -> "AnalyzerSetting":
        return cls(0.0)

    @classmethod
    def da(cls) -> "AnalyzerSetting":
        return cls(22.5)


@dataclass
class PairStreams:
    alice: np.ndarray  # TAG_DTYPE, channels 0/1
    bob: np.ndarray  # TAG_DTYPE, channels 2/3


@dataclass
class PairTruth:
    pair_id: int
    emitted: int
    outcome_counts: Tuple[int, int, int, int]
    true_coincidences: int
    photon_singles: Dict[int, int]
    dark_counts: Dict[int, int]
    crosstalk_out: int


@dataclass
class GroundTruth:
    pairs: Dict[int, PairTruth] = field(default_factory=dict)


@dataclass
class SimulationResult:
    streams: Dict[int, PairStreams]
    truth: GroundTruth


def joint_outcome_probs(
    theta_a_deg: float, theta_b_deg: float, visibility: float
) -> Tuple[float, float, float, float]:
    """Outcome probabilities (++, +-, -+, --) for analyzer angles a and b.

    P(a, b) = 1/4 (1 + a b V cos 2(theta_a - theta_b)) for a, b in {+1, -1},
    the correlation of a maximally entangled state mixed with isotropic
    noise of visibility V.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    c = visibility * math.cos(2.0 * math.radians(theta_a_deg - theta_b_deg))
    same = 0.25 * (1.0 + c)
    diff = 0.25 * (1.0 - c)
    return (same, diff, diff, same)


def _pair_rng(seed: int, pair_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, pair_id])))


def simulate_run(
    source: SourceParams,
    pair: CorePair,
    link: LinkParams,
    setting: AnalyzerSetting,
    duration_s: float,
    seed: int,
    *,
    angle_offset_deg: float = 0.0,
    time_offset_ps: int = 0,
    mark_dark_tags: bool = False,
) -> SimulationResult:
    """Simulate one acquisition of one core pair and return its two streams.

    Emissions couple into the pair with its coupling probability; each
    photon independently survives the link's transmission, receives Gaussian
    timing jitter (truncated at 6 sigma) and is lost to crosstalk with the
    link's ``crosstalk_prob``, which breaks its coincidence.  Dark counts are
    added per detector as independent Poisson processes.  Streams come back
    sorted by time with a ground-truth record of what was generated, both
    keyed by the pair id.

    Args:
        setting: plate setting of both analyzers.
        angle_offset_deg: polarization drift added to Bob's analyzer angle.
        time_offset_ps: added to all timestamps (schedule segment start).
        mark_dark_tags: set the dark-count flag bit on dark tags.
    """
    if duration_s <= 0:
        raise ValueError("duration must be > 0")
    duration_ps = max(1, int(round(duration_s * PS_PER_S)))

    if pair.coupling_prob == 0.0:
        warnings.warn(
            f"core pair {pair.pair_id} has zero coupling probability; "
            "only dark counts will be generated",
            RuntimeWarning,
            stacklevel=2,
        )

    probs = joint_outcome_probs(
        setting.analyzer_angle_deg,
        setting.analyzer_angle_deg + angle_offset_deg,
        source.visibility,
    )
    cum_probs = np.cumsum(probs)
    cum_probs[-1] = 1.0

    # each intermediate array is dropped once spent, so only the tag chunks
    # of the streams are alive when they are assembled
    rng = _pair_rng(seed, pair.pair_id)
    lam = source.pair_rate * pair.coupling_prob * duration_s
    n_emit = int(rng.poisson(lam)) if lam > 0 else 0

    t_emit = rng.integers(0, duration_ps, n_emit, dtype=np.int64)
    t_emit.sort()
    surv_a = rng.random(n_emit) < link.transmission
    surv_b = rng.random(n_emit) < link.transmission

    # which surviving photon of each arm has a surviving partner
    both_in_a = surv_b[surv_a]
    both_in_b = surv_a[surv_b]
    n_both = int(both_in_a.sum())
    outcome = np.searchsorted(cum_probs, rng.random(n_both), side="right")
    outcome_counts = np.bincount(outcome, minlength=4)

    # channel of each surviving photon: transmitted port for +, reflected for -
    a_ch = np.empty(both_in_a.size, dtype=np.uint8)
    b_ch = np.empty(both_in_b.size, dtype=np.uint8)
    a_ch[both_in_a] = np.where(outcome < 2, CH_ALICE_T, CH_ALICE_R)
    b_ch[both_in_b] = np.where(outcome % 2 == 0, CH_BOB_T, CH_BOB_R)
    del outcome
    a_ch[~both_in_a] = rng.integers(CH_ALICE_T, CH_ALICE_R + 1, a_ch.size - n_both, dtype=np.uint8)
    b_ch[~both_in_b] = rng.integers(CH_BOB_T, CH_BOB_R + 1, b_ch.size - n_both, dtype=np.uint8)

    def detect_times(survived: np.ndarray) -> np.ndarray:
        t = t_emit[survived]
        t += link.propagation_delay_ps
        slack = 0
        if link.jitter_sigma_ps > 0:
            slack = int(math.ceil(6.0 * link.jitter_sigma_ps))
            jitter = rng.normal(0.0, link.jitter_sigma_ps, t.size)
            np.clip(jitter, -slack, slack, out=jitter)
            t += np.rint(jitter, out=jitter).astype(np.int64)
        return np.clip(t, 0, duration_ps + slack, out=t)

    t_a = detect_times(surv_a)
    del surv_a
    t_b = detect_times(surv_b)
    del surv_b, t_emit

    # crosstalk removes the photon from its own core
    xtalk_a = rng.random(t_a.size) < link.crosstalk_prob
    xtalk_b = rng.random(t_b.size) < link.crosstalk_prob
    n_xtalk = int(xtalk_a.sum() + xtalk_b.sum())
    keep_a = ~xtalk_a
    keep_b = ~xtalk_b
    # a coincidence survives only if neither photon was lost to crosstalk
    true_coinc = int((keep_a[both_in_a] & keep_b[both_in_b]).sum())
    # tag chunks of Alice's and Bob's stream
    chunks = (
        [(t_a[keep_a], a_ch[keep_a], np.zeros(int(keep_a.sum()), dtype=np.uint8))],
        [(t_b[keep_b], b_ch[keep_b], np.zeros(int(keep_b.sum()), dtype=np.uint8))],
    )
    del t_a, t_b

    # dark counts per detector; channels 0/1 are Alice's, 2/3 Bob's
    dark_counts: Dict[int, int] = {}
    for det in (CH_ALICE_T, CH_ALICE_R, CH_BOB_T, CH_BOB_R):
        n_dark = int(rng.poisson(link.dark_rate_cps * duration_s))
        dark_counts[det] = n_dark
        d_times = rng.integers(0, duration_ps, n_dark, dtype=np.int64)
        d_flags = np.full(n_dark, FLAG_DARK if mark_dark_tags else 0, dtype=np.uint8)
        chunks[det // 2].append((d_times, np.full(n_dark, det, dtype=np.uint8), d_flags))

    photon_singles = {
        CH_ALICE_T: int(np.sum((a_ch == CH_ALICE_T) & keep_a)),
        CH_ALICE_R: int(np.sum((a_ch == CH_ALICE_R) & keep_a)),
        CH_BOB_T: int(np.sum((b_ch == CH_BOB_T) & keep_b)),
        CH_BOB_R: int(np.sum((b_ch == CH_BOB_R) & keep_b)),
    }
    truth = PairTruth(
        pair_id=pair.pair_id,
        emitted=n_emit,
        outcome_counts=tuple(int(v) for v in outcome_counts),
        true_coincidences=true_coinc,
        photon_singles=photon_singles,
        dark_counts=dark_counts,
        crosstalk_out=n_xtalk,
    )
    streams = PairStreams(
        alice=_assemble(chunks[0], time_offset_ps), bob=_assemble(chunks[1], time_offset_ps)
    )
    return SimulationResult(
        streams={pair.pair_id: streams}, truth=GroundTruth(pairs={pair.pair_id: truth})
    )


def _assemble(
    chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]], time_offset_ps: int
) -> np.ndarray:
    # one sort of (time, channel, flag) packed into one int64 key: channels
    # are 0-3, flags 0 or FLAG_DARK (1) and times in [0, 2**60), and equal
    # keys are equal records, so the order is that of a stable sort on (time,
    # channel) with photon tags before dark ones; ``chunks`` is emptied
    key = np.concatenate([c[0] for c in chunks])
    key += time_offset_ps
    if key.size and (key.min() < 0 or key.max() >= 1 << 60):
        raise ValueError("tag times must lie in [0, 2**60) ps")
    key <<= 2
    key += np.concatenate([c[1] for c in chunks])
    key <<= 1
    key += np.concatenate([c[2] for c in chunks])
    chunks.clear()
    key.sort()
    tags = np.zeros(key.size, dtype=TAG_DTYPE)
    tags["flags"] = key & 1
    key >>= 1
    tags["channel"] = key & 3
    key >>= 2
    tags["time_ps"] = key
    return tags


def apply_polarization_drift(
    sample_times_hours: Sequence[float],
    drift_rate_deg_per_hour: float,
    seed: int,
    max_offset_deg: float = 3.0,
) -> np.ndarray:
    """Polarization drift offsets at the requested times.

    A Gaussian random walk on the analyzer misalignment angle, with standard
    deviation ``drift_rate`` per hour of elapsed time, reflected at
    +-max_offset so the misalignment stays bounded, as it does for a fiber
    left alone at fixed temperature.
    """
    if drift_rate_deg_per_hour < 0:
        raise ValueError("drift rate must be >= 0")
    times = np.asarray(sample_times_hours, dtype=float)
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing")
    if drift_rate_deg_per_hour == 0 or times.size == 0:
        return np.zeros(times.size)
    if max_offset_deg <= 0:
        raise ValueError("max_offset_deg must be > 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _DRIFT_SALT])))
    dt = np.diff(np.concatenate(([0.0], times)))
    steps = rng.normal(0.0, 1.0, times.size) * drift_rate_deg_per_hour * np.sqrt(dt)
    walk = np.cumsum(steps)
    # reflect into [-max, +max] with a triangle-wave fold
    period = 4.0 * max_offset_deg
    folded = np.mod(walk + max_offset_deg, period)
    folded = np.where(folded > 2.0 * max_offset_deg, period - folded, folded)
    return folded - max_offset_deg

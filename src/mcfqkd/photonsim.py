"""Monte Carlo generation of detector timetag streams for entangled pairs.

One call simulates one acquisition of one core pair: both photons cross the
same link and are analyzed at the same plate setting, with an optional drift
offset on Bob's analyzer.  Pair emission into the core pair is a Poisson
process of rate lambda, and each photon reaches its own detector with
probability p = transmission x (1 - crosstalk): crosstalk into a neighboring
core is a loss that breaks the photon's coincidence.  Split by which photons
are detected, the pairs form independent Poisson processes: both detected
(lambda p^2), only Alice's and only Bob's (lambda p(1-p) each).  Only their
counts and times are drawn, so the cost follows the detections, not the
emissions, with the same distribution as thinning every emission.

Each stream is a PCG64 seeded by ``SeedSequence([seed, purpose,
segment_index, pair_id])``, ``PURPOSE_TAGS`` for the tag streams and
``PURPOSE_DRIFT`` for the drift walk.  ``SeedSequence`` splits an int beyond
32 bits into words and pads a short list with zeros, so the list has a fixed
length and each entry must be one ``uint32`` word: then no two tuples share a
stream, and acquisitions run in any order or in parallel, bit for bit.

The draws fix the output bytes.  ``simulate_run`` makes them in this order:
``poisson`` for the pairs detected by both, only Alice, only Bob and neither;
``integers`` for Alice's photon times, the both-detected pairs' first, and
for Bob's lone photons' times; ``random`` for each both-detected pair's
outcome; per arm, Alice's first, ``uint8`` ``integers`` for each lone
photon's port and ``normal`` for the jitter (none without it); per detector
0-3, ``poisson`` for its dark counts and ``integers`` for their times.  Speed
changes keep each draw's method, size, dtype and place.
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

#: flags bit 0 marks a dark count; ``simulate_run`` sets it on every dark tag
FLAG_DARK = 0x01

#: in-memory record layout, identical to the 16-byte on-disk record
TAG_DTYPE = np.dtype(
    [("time_ps", "<u8"), ("channel", "u1"), ("flags", "u1"), ("reserved", "V6")]
)

PS_PER_S = 1_000_000_000_000

# second record word of each key code 2*channel + flag: channel | flag << 8
_CODE_WORDS = np.array([c >> 1 | (c & 1) << 8 for c in range(8)], dtype=np.int64)

#: purpose tags, the second entropy word of the tag streams and the drift walk
PURPOSE_TAGS, PURPOSE_DRIFT = 1, 2


def _stream_rng(seed: int, purpose: int, segment_index: int, pair_id: int) -> np.random.Generator:
    """PCG64 seeded by ``SeedSequence([seed, purpose, segment_index, pair_id])``."""
    for name, value in dict(seed=seed, segment_index=segment_index, pair_id=pair_id).items():
        if not 0 <= value < 2**32:  # one uint32 word each, see the module docstring
            raise ValueError(f"{name} must be in [0, 2**32), got {value}")
    return np.random.default_rng([seed, purpose, segment_index, pair_id])


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source: emission rate and Werner-type visibility."""

    pair_rate: float
    visibility: float = 0.94
    temperature_c: float = 82.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.pair_rate):
            raise ValueError(f"pair_rate must be finite, got {self.pair_rate}")
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

    def __post_init__(self) -> None:
        for name in (
            "fiber_length_km", "fiber_loss_db_per_km", "system_loss_db", "dark_rate_cps",
            "jitter_sigma_ps",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in (0, 1]")
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


def simulate_run(
    source: SourceParams,
    pair: CorePair,
    link: LinkParams,
    setting: AnalyzerSetting,
    duration_s: float,
    seed: int,
    *,
    segment_index: int = 0,
    angle_offset_deg: float = 0.0,
    time_offset_ps: int = 0,
) -> SimulationResult:
    """Simulate one acquisition of one core pair and return its two streams.

    Emissions couple into the pair with its coupling probability; each
    photon independently survives the link's transmission and crosstalk (a
    loss), and a detected one gets Gaussian jitter truncated at 6 sigma.  Dark
    counts are added per detector as independent Poisson processes, each tag
    flagged ``FLAG_DARK``.  Streams come back sorted by time with a
    ground-truth record of what was generated, both keyed by the pair id.

    Args:
        seed, segment_index: select the random stream, with the pair id.
        setting: plate setting of both analyzers.
        angle_offset_deg: polarization drift added to Bob's analyzer angle.
        time_offset_ps: added to all timestamps (schedule segment start).
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    duration_ps = max(1, int(round(duration_s * PS_PER_S)))
    rng = _stream_rng(seed, PURPOSE_TAGS, segment_index, pair.pair_id)

    if pair.coupling_prob == 0.0:
        warnings.warn(
            f"core pair {pair.pair_id} has zero coupling probability; "
            "only dark counts will be generated",
            RuntimeWarning,
            stacklevel=2,
        )

    theta = setting.analyzer_angle_deg
    probs = joint_outcome_probs(theta, theta + angle_offset_deg, source.visibility)
    # a pair's outcome (++, +-, -+, --) is the count of these at or below its draw
    cum_probs = np.cumsum(probs)[:3]

    # pairs with both photons detected, only Alice's, only Bob's and neither
    lam = source.pair_rate * pair.coupling_prob * duration_s
    p = link.transmission * (1.0 - link.crosstalk_prob)
    means = (p * p, p * (1.0 - p), (1.0 - p) * p, (1.0 - p) ** 2)
    n_both, n_a, n_b, n_none = (int(rng.poisson(lam * m)) for m in means)

    # each arm's photon times in [0, duration) in one array, the both-detected
    # pairs' first, each part sorted, so the jittered photons are nearly in
    # time order; both arms cross the same link, so no delay separates them
    times = [rng.integers(0, duration_ps, n_both + n_a, np.int64), np.empty(n_both + n_b, np.int64)]
    times[0][:n_both].sort()
    times[1][:n_both] = times[0][:n_both]
    times[1][n_both:] = rng.integers(0, duration_ps, n_b, np.int64)
    above = np.less_equal.outer(cum_probs, rng.random(n_both))
    # pairs with outcome >= 0, 1, 2, 3 and 4
    n_ge = [n_both] + [int(np.count_nonzero(g)) for g in above] + [0]
    outcome_counts = tuple(n_ge[k] - n_ge[k + 1] for k in range(4))

    # per arm, Alice's first: each tag's code, 2*channel + flag (see ``_assemble``),
    # with the transmitted port for a pair's +, the reflected one for -, so Alice's
    # reflects for outcomes 2 and 3 and Bob's for the odd ones, and a random port for
    # a lone photon; then Gaussian jitter truncated at 6 sigma
    reflected = [above[1], above[0] ^ above[1] ^ above[2]]
    slack = int(math.ceil(6.0 * link.jitter_sigma_ps))
    chunks = ([], [])  # (times, codes) chunks of Alice's and Bob's stream
    for t, refl, ch_t, chunk in zip(times, reflected, (CH_ALICE_T, CH_BOB_T), chunks):
        t[n_both:].sort()
        lone = rng.integers(ch_t, ch_t + 2, t.size - n_both, dtype=np.uint8)
        chunk.append((t, 2 * np.concatenate([ch_t + refl.view(np.uint8), lone])))
        if slack:
            jitter = rng.normal(0.0, link.jitter_sigma_ps, t.size)
            np.clip(jitter, -slack, slack, out=jitter)
            # t += rint(jitter), with the int64 cast done in buffered blocks
            np.add(t, np.rint(jitter, out=jitter), out=t, dtype=np.int64, casting="unsafe")
            del jitter
        np.clip(t, 0, duration_ps + slack, out=t)
    del times, above, reflected, t, refl, lone  # the loop's last arrays too

    # dark counts per detector; channels 0/1 are Alice's, 2/3 Bob's
    photon_singles, dark_counts = {}, {}
    for det in (CH_ALICE_T, CH_ALICE_R, CH_BOB_T, CH_BOB_R):
        photon_singles[det] = int(np.count_nonzero(chunks[det // 2][0][1] == 2 * det))
        dark_counts[det] = n_dark = int(rng.poisson(link.dark_rate_cps * duration_s))
        d_times = rng.integers(0, duration_ps, n_dark, dtype=np.int64)
        chunks[det // 2].append((d_times, np.full(n_dark, 2 * det + FLAG_DARK, dtype=np.uint8)))

    truth = PairTruth(
        pair_id=pair.pair_id,
        emitted=n_both + n_a + n_b + n_none,
        outcome_counts=outcome_counts,
        true_coincidences=n_both,
        photon_singles=photon_singles,
        dark_counts=dark_counts,
    )
    streams = PairStreams(*(_assemble(c, time_offset_ps) for c in chunks))
    return SimulationResult(
        streams={pair.pair_id: streams}, truth=GroundTruth(pairs={pair.pair_id: truth})
    )


def _assemble(chunks: List[Tuple[np.ndarray, np.ndarray]], time_offset_ps: int) -> np.ndarray:
    # one sort of the int64 key time*8 + 2*channel + flag (channels 0-3, flag
    # 0 or FLAG_DARK, times in [0, 2**60)); equal keys are equal records, so
    # any sort gives the same bytes, and the stable one (a timsort) is the
    # fastest here: the photons are in time order but where jitter swaps two,
    # and the few dark tags are merged in; ``chunks`` is emptied
    key = np.concatenate([t for t, _ in chunks])
    key += time_offset_ps
    if key.size and (key.min() < 0 or key.max() >= 1 << 60):
        raise ValueError("tag times must lie in [0, 2**60) ps")
    key <<= 3
    key |= np.concatenate([code for _, code in chunks])
    chunks.clear()
    key.sort(kind="stable")
    tags = np.empty(key.size, dtype=TAG_DTYPE)
    # each record as two little-endian int64 words: the time, then channel |
    # flags << 8 with the reserved bytes zero
    words = tags.view("<i8").reshape(-1, 2)
    np.right_shift(key, 3, out=words[:, 0])
    key &= 7
    words[:, 1] = _CODE_WORDS.take(key, out=key, mode="clip")
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
    rng = _stream_rng(seed, PURPOSE_DRIFT, 0, 0)
    dt = np.diff(np.concatenate(([0.0], times)))
    steps = rng.normal(0.0, 1.0, times.size) * drift_rate_deg_per_hour * np.sqrt(dt)
    walk = np.cumsum(steps)
    # reflect into [-max, +max] with a triangle-wave fold
    period = 4.0 * max_offset_deg
    folded = np.mod(walk + max_offset_deg, period)
    folded = np.where(folded > 2.0 * max_offset_deg, period - folded, folded)
    return folded - max_offset_deg

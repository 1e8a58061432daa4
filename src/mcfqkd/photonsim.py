"""Monte Carlo generation of detector timetag streams for entangled pairs.

One call simulates one acquisition of one core pair, a ``ScheduleSegment``:
both photons cross the same link and are analyzed in the segment's basis, at
its ``ANALYZER_ANGLE_DEG``, with an optional drift offset on Bob's analyzer.
Pair emission into the core pair is a Poisson process of rate lambda, and
each photon reaches its own detector with probability p = transmission x
(1 - crosstalk): crosstalk into a neighboring core is a loss that breaks the
photon's coincidence.  Split by which photons are detected, the pairs form
independent Poisson processes: both detected (lambda p^2), only Alice's and
only Bob's (lambda p(1-p) each).  Only their counts and times are drawn, so
the cost follows the detections, not the emissions, with the same
distribution as thinning every emission.

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
outcome, in chunks of ``_CHUNK`` through the buffer that the jitter reuses,
which gives the values of one ``random(n)`` draw; per arm, Alice's first,
``uint8`` ``integers`` for each lone photon's port and the jitter (none
without it), ``standard_normal`` in chunks of ``_CHUNK`` scaled by sigma,
which gives the values of one ``normal(0, sigma, n)`` draw; per detector 0-3,
``poisson`` for its dark counts and ``integers`` for their times, sorted after
the draw.  Every time is drawn in the segment's [start, start + duration) ps,
which numpy computes as start plus a draw on [0, duration): the start moves
every time and changes no other value.  Speed changes keep each draw's values
and place.  Each arm's times and codes are written in place, and the outcomes
and jitter go through one reused buffer of ``_CHUNK`` floats, so the only
other arrays as long as a stream are the key and codes that ``_assemble``
returns.

Each arm comes back as a ``Stream``: sorted ``int64`` times and ``uint8`` codes
``2 * channel + flag``, checked once where it is made.  Only ``tagio`` turns a
stream into the 16-byte records of a file, and a file's records into one.
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
    "TIME_LIMIT_PS",
    "Stream",
    "UnsortedStreamError",
    "SourceParams",
    "LinkParams",
    "ANALYZER_ANGLE_DEG",
    "ScheduleSegment",
    "acquisitions",
    "jitter_slack_ps",
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

PS_PER_S = 1_000_000_000_000
#: no tag time reaches it: a ``Stream`` holds times in [0, 2**60) ps only
TIME_LIMIT_PS = 1 << 60

#: jitter values per standard normal draw: a chunk's buffer (512 KiB) is reused by the next
_CHUNK = 1 << 16

#: each basis's analyzer angle in the polarization frame: twice its half-wave plate's 0 and 22.5 deg
ANALYZER_ANGLE_DEG = {"HV": 0.0, "DA": 45.0}

#: purpose tags, the second entropy word of the tag streams and the drift walk
PURPOSE_TAGS, PURPOSE_DRIFT = 1, 2


def _stream_words(seed: int, purpose: int, segment_index: int, pair_id: int) -> List[int]:
    """A stream's checked entropy words: no generator, so checking a config loads no ``numpy.random``."""
    for name, value in dict(seed=seed, segment_index=segment_index, pair_id=pair_id).items():
        if not 0 <= value < 2**32:  # one uint32 word each, see the module docstring
            raise ValueError(f"{name} must be in [0, 2**32), got {value}")
    return [seed, purpose, segment_index, pair_id]


def _stream_rng(seed: int, purpose: int, segment_index: int, pair_id: int) -> np.random.Generator:
    """PCG64 seeded by ``SeedSequence([seed, purpose, segment_index, pair_id])``."""
    return np.random.default_rng(_stream_words(seed, purpose, segment_index, pair_id))


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
class ScheduleSegment:
    """One acquisition: its basis, and its start and duration in integer picoseconds."""

    basis: str
    start_ps: int
    duration_ps: int

    def __post_init__(self) -> None:
        if self.basis not in ANALYZER_ANGLE_DEG:
            raise ValueError(f"basis must be one of {list(ANALYZER_ANGLE_DEG)}, got {self.basis!r}")
        if not isinstance(self.start_ps, int):
            raise ValueError(f"start_ps must be an integer, got {self.start_ps!r}")
        if not (isinstance(self.duration_ps, int) and self.duration_ps > 0):
            raise ValueError(f"duration_ps must be an integer > 0, got {self.duration_ps!r}")


def acquisitions(bases: Sequence[str], slot_s: float, acquisition_s: float) -> Tuple[ScheduleSegment, ...]:
    """One acquisition of ``acquisition_s`` at the start of each ``slot_s`` slot, in whole ps;
    the acquisition is checked before ``round`` can overflow, and NaN too."""
    if not 0.5 < acquisition_s * PS_PER_S < TIME_LIMIT_PS:
        raise ValueError(f"acquisition_s must be in [1 ps, 2**60 ps) once rounded, got {acquisition_s}")
    slot_ps, duration_ps = round(slot_s * PS_PER_S), round(acquisition_s * PS_PER_S)
    return tuple(ScheduleSegment(b, k * slot_ps, duration_ps) for k, b in enumerate(bases))


def jitter_slack_ps(segment: ScheduleSegment, jitter_sigma_ps: float) -> int:
    """The jitter's 6 sigma in whole ps, where it is truncated: every tag of ``segment`` lies in
    [start, end + slack), which must lie in [0, 2**60) ps for ``_assemble``'s keys time*8 + code."""
    slack, start = math.ceil(6.0 * jitter_sigma_ps), segment.start_ps
    end = start + segment.duration_ps + slack
    if start < 0 or end > TIME_LIMIT_PS:
        raise ValueError(f"tag times must lie in [0, 2**60) ps, got [{start}, {end}) with 6 sigma of jitter")
    return slack


class UnsortedStreamError(ValueError):
    """A timetag stream was not sorted in non-decreasing time order."""


@dataclass(frozen=True, eq=False)
class Stream:
    """One arm's tags in time order: ``times`` in [0, 2**60) ps (``int64``) and ``codes``, each
    ``2 * channel + flag`` (``uint8``), on Alice's channels 0/1 for ``channel_id`` 0 or
    Bob's 2/3 for 1 (a tag file's channel id).  Checked here, where it is made."""

    times: np.ndarray
    codes: np.ndarray
    channel_id: int

    def __post_init__(self) -> None:
        t, c, ch = self.times, self.codes, self.channel_id
        if not (np.ndim(t) == 1 and getattr(t, "dtype", None) == np.int64 and ch in (0, 1)):
            raise ValueError(f"need one-dimensional int64 times and channel id 0 or 1, got {ch}")
        if getattr(c, "dtype", None) != np.uint8 or c.shape != t.shape:
            raise ValueError("codes must be a uint8 array as long as the times")
        down = t[1:] < t[:-1]
        if down.any():
            raise UnsortedStreamError(f"times are not sorted at index {int(down.argmax()) + 1}")
        if t.size and not (0 <= t[0] and t[-1] < TIME_LIMIT_PS):  # sorted: the ends suffice
            raise ValueError(f"times must lie in [0, 2**60) ps, got {t[0] if t[0] < 0 else t[-1]}")
        if c.size and not 4 * ch <= c.min() <= c.max() < 4 * ch + 4:  # not 2*channel + flag
            i = int(np.flatnonzero(c >> 2 != ch)[0])
            raise ValueError(f"code {c[i]} at index {i} is not valid for channel id {ch}")

    def __len__(self) -> int:
        return self.times.size

    @property
    def nbytes(self) -> int:
        return self.times.nbytes + self.codes.nbytes


@dataclass
class PairStreams:
    alice: Stream  # channels 0/1
    bob: Stream  # channels 2/3


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
    for name, angle in dict(theta_a_deg=theta_a_deg, theta_b_deg=theta_b_deg).items():
        if not math.isfinite(angle):
            raise ValueError(f"{name} must be finite, got {angle}")
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
    segment: ScheduleSegment,
    seed: int,
    *,
    segment_index: int = 0,
    angle_offset_deg: float = 0.0,
) -> SimulationResult:
    """Simulate one acquisition of one core pair and return its two streams.

    Emissions couple into the pair with its coupling probability; each
    photon independently survives the link's transmission and crosstalk (a
    loss), and a detected one gets Gaussian jitter truncated at 6 sigma and
    clipped at the segment's start.  Dark counts are added per detector as
    independent Poisson processes, each tag flagged ``FLAG_DARK``.  Streams
    come back sorted by time with a ground-truth record of what was
    generated, both keyed by the pair id.

    Args:
        segment: the basis of both analyzers, and the span [start, start +
            duration) ps in which every emission and dark count is drawn.
        seed, segment_index: select the random stream, with the pair id.
        angle_offset_deg: polarization drift added to Bob's analyzer angle.
    """
    start, end = segment.start_ps, segment.start_ps + segment.duration_ps
    duration_s = segment.duration_ps / PS_PER_S
    slack = jitter_slack_ps(segment, link.jitter_sigma_ps)
    rng = _stream_rng(seed, PURPOSE_TAGS, segment_index, pair.pair_id)

    if pair.coupling_prob == 0.0:
        warnings.warn(
            f"core pair {pair.pair_id} has zero coupling probability; "
            "only dark counts will be generated",
            RuntimeWarning,
            stacklevel=2,
        )

    theta = ANALYZER_ANGLE_DEG[segment.basis]
    probs = joint_outcome_probs(theta, theta + angle_offset_deg, source.visibility)
    # a pair's outcome (++, +-, -+, --) is the count of these at or below its draw
    cum_probs = np.cumsum(probs)[:3]

    # pairs with both photons detected, only Alice's, only Bob's and neither
    lam = source.pair_rate * pair.coupling_prob * duration_s
    p = link.transmission * (1.0 - link.crosstalk_prob)
    means = (p * p, p * (1.0 - p), (1.0 - p) * p, (1.0 - p) ** 2)
    n_both, n_a, n_b, n_none = (int(rng.poisson(lam * m)) for m in means)

    # each arm's photon times in [start, end) in one array, the both-detected
    # pairs' first, each part sorted, so the jittered photons are nearly in
    # time order; both arms cross the same link, so no delay separates them;
    # each arm's codes, 2*channel + flag, are allocated right after its times, so
    # that ``_assemble`` frees the two as one hole that Bob's key fits into
    try:
        times = [rng.integers(start, end, n_both + n_a, np.int64)]
        codes = [np.empty(times[0].size, np.uint8)]
        times.append(np.empty(n_both + n_b, np.int64))
        codes.append(np.empty(times[1].size, np.uint8))
    except MemoryError:
        n = 2 * n_both + n_a + n_b
        raise ValueError(f"{n} photon tags of a {duration_s:g} s acquisition cannot be allocated") from None
    times[0][:n_both].sort()
    times[1][:n_both] = times[0][:n_both]
    times[1][n_both:] = rng.integers(start, end, n_b, np.int64)
    buf = np.empty(min(max(n_both + n_a, n_both + n_b), _CHUNK))  # outcome and jitter draws
    n_ge = _draw_outcomes(rng, cum_probs, n_both, buf, codes)
    outcome_counts = tuple(n_ge[k] - n_ge[k + 1] for k in range(4))

    # per arm, Alice's first: a random port for each lone photon, then Gaussian
    # jitter truncated at 6 sigma; a pair's photon reflects at Alice for outcomes
    # 2 and 3 and at Bob for the odd ones
    photon_singles, chunks = {}, ([], [])  # (times, codes) chunks of Alice's and Bob's stream
    pairs_reflected = (n_ge[2], outcome_counts[1] + outcome_counts[3])
    for arm, ch_t in enumerate((CH_ALICE_T, CH_BOB_T)):
        t, c = times[arm], codes[arm]
        t[n_both:].sort()
        lone = rng.integers(ch_t, ch_t + 2, t.size - n_both, dtype=np.uint8)
        reflected = pairs_reflected[arm] + int(lone.sum()) - ch_t * lone.size
        photon_singles[ch_t], photon_singles[ch_t + 1] = t.size - reflected, reflected
        np.left_shift(lone, 1, out=c[n_both:])
        chunks[arm].append((t, c))
        if slack:
            _jitter(rng, t, n_both, start, slack, link.jitter_sigma_ps, buf)
    del times, codes, buf, t, c, lone  # only ``chunks`` holds the arms

    # dark counts per detector, sorted as drawn for ``_assemble`` to merge;
    # channels 0/1 are Alice's, 2/3 Bob's
    dark_counts = {}
    for det in (CH_ALICE_T, CH_ALICE_R, CH_BOB_T, CH_BOB_R):
        dark_counts[det] = n_dark = int(rng.poisson(link.dark_rate_cps * duration_s))
        d_times = rng.integers(start, end, n_dark, dtype=np.int64)
        d_times.sort()
        chunks[det // 2].append((d_times, np.full(n_dark, 2 * det + FLAG_DARK, dtype=np.uint8)))

    truth = PairTruth(
        pair_id=pair.pair_id,
        emitted=n_both + n_a + n_b + n_none,
        outcome_counts=outcome_counts,
        true_coincidences=n_both,
        photon_singles=photon_singles,
        dark_counts=dark_counts,
    )
    streams = PairStreams(*(_assemble(c, k) for k, c in enumerate(chunks)))
    return SimulationResult(
        streams={pair.pair_id: streams}, truth=GroundTruth(pairs={pair.pair_id: truth})
    )


def _draw_outcomes(rng, cum_probs, n: int, buf: np.ndarray, codes: List[np.ndarray]) -> List[int]:
    """Counts of the ``n`` both-detected pairs with outcome >= 0, 1, 2, 3 and 4, each
    pair's outcome drawn by ``random`` through ``buf`` (the values of one ``random(n)``)
    and its photons' codes written to the first ``n`` of Alice's and Bob's ``codes``."""
    n_ge, ge = [n, 0, 0, 0, 0], np.empty((3, buf.size), dtype=bool)
    for s in range(0, n, _CHUNK):
        u = rng.random(out=buf[: n - s])
        m, alice, bob = ge[:, : u.size], codes[0][s : s + u.size], codes[1][s : s + u.size]
        for k in range(3):
            n_ge[k + 1] += int(np.count_nonzero(np.greater_equal(u, cum_probs[k], out=m[k])))
        np.left_shift(m[1].view(np.uint8), 1, out=alice)  # reflected for outcomes 2 and 3
        m[0] ^= m[1]
        m[0] ^= m[2]  # odd outcomes
        np.left_shift(m[0].view(np.uint8), 1, out=bob)
        bob |= 2 * CH_BOB_T
    return n_ge


def _jitter(rng, t: np.ndarray, n_both: int, start: int, slack: int, sigma: float, buf) -> None:
    """``t += rint(clip(sigma * z))``, z ``standard_normal`` drawn through ``buf`` (the values
    of one draw), then clipped at ``start``: only the times below ``start + slack`` in
    each sorted part, ``[:n_both]`` and ``[n_both:]``, can fall below it."""
    low = [(k, k + np.searchsorted(t[k:j], start + slack)) for k, j in ((0, n_both), (n_both, None))]
    for s in range(0, t.size, _CHUNK):
        z = rng.standard_normal(out=buf[: t.size - s])
        z *= sigma
        np.rint(np.clip(z, -slack, slack, out=z), out=z)
        part = t[s : s + z.size]
        np.add(part, z, out=part, dtype=np.int64, casting="unsafe")
    for k, j in low:
        np.maximum(t[k:j], start, out=t[k:j])


def _assemble(chunks: List[Tuple[np.ndarray, np.ndarray]], channel_id: int) -> Stream:
    # one sort of the int64 key time*8 + 2*channel + flag (channels 0-3, flag
    # 0 or FLAG_DARK); equal keys are equal tags, so any sort gives the same
    # stream, and the stable one (a timsort) is the fastest here: the photons
    # are in time order but where jitter swaps two, and the few dark tags are
    # merged in; each chunk is taken from ``chunks`` and freed once in the key,
    # after the codes are allocated, so that the next arm's key can take its place
    key, end = np.empty(sum(t.size for t, _ in chunks), dtype=np.int64), 0
    codes = np.empty(key.size, dtype=np.uint8)
    while chunks:
        t, code = chunks.pop(0)
        part = np.left_shift(t, 3, out=key[end : end + t.size])
        part |= code
        end += t.size
    key.sort(kind="stable")
    # split in place: the codes out of the key's low bits, then the times
    np.bitwise_and(key, 7, out=codes, casting="unsafe")
    key >>= 3
    return Stream(key, codes, channel_id)


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
    if not 0 <= drift_rate_deg_per_hour < math.inf:  # NaN too
        raise ValueError(f"drift rate must be finite and >= 0, got {drift_rate_deg_per_hour}")
    if not 0 < max_offset_deg < math.inf:
        raise ValueError(f"max_offset_deg must be finite and > 0, got {max_offset_deg}")
    times = np.asarray(sample_times_hours, dtype=float)
    if times.size and np.any(np.diff(times) < 0):
        raise ValueError("sample times must be non-decreasing")
    if drift_rate_deg_per_hour == 0 or times.size == 0:
        return np.zeros(times.size)
    rng = _stream_rng(seed, PURPOSE_DRIFT, 0, 0)
    dt = np.diff(np.concatenate(([0.0], times)))
    steps = rng.normal(0.0, 1.0, times.size) * drift_rate_deg_per_hour * np.sqrt(dt)
    walk = np.cumsum(steps)
    # reflect into [-max, +max] with a triangle-wave fold
    period = 4.0 * max_offset_deg
    folded = np.mod(walk + max_offset_deg, period)
    folded = np.where(folded > 2.0 * max_offset_deg, period - folded, folded)
    return folded - max_offset_deg

"""Timetag stream analysis: cross-correlation, windowed coincidence matching
and accidental-coincidence estimation.

All operations work on sorted ``int64`` picosecond timestamp arrays and use
integer arithmetic throughout, so results stay exact even for timestamps far
beyond 2**53 (a day of picoseconds does not fit a double).

One binary search of the A stream into the B stream finds, for every A tag,
the first B tag at or after its lowest window start.  Every other window
edge (the histogram's, the coincidence and the accidental window's) is
walked to from there: one comparison per A tag, and a gallop over the B tags
it steps over, which are the pairs the histogram bins anyway.  ``tally_basis``
checks each stream once, into the one search that all its passes share (their
private ``search`` argument); a pass called alone checks its own inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .qkdmath import BasisCounts

__all__ = [
    "CorrelationHistogram",
    "AccidentalEstimate",
    "CoincidenceTally",
    "NoPeakError",
    "UnsortedStreamError",
    "cross_correlation",
    "find_peak_delay",
    "count_coincidences",
    "estimate_accidentals",
    "tally_basis",
]

#: Interpretations of the coincidence window width. "full" treats the window
#: as the total width (|dt| <= w/2); "half" treats it as the half width
#: (|dt| <= w).
WINDOW_MODES = ("full", "half")

#: A tags per block of the histogram and matching passes, which bounds their
#: temporary arrays whatever the stream length
_BLOCK = 1 << 14


class UnsortedStreamError(ValueError):
    """A timetag stream was not sorted in non-decreasing time order."""


class NoPeakError(ValueError):
    """Peak lookup on a histogram with no counts."""


@dataclass(frozen=True)
class CorrelationHistogram:
    """Histogram of pairwise delays t_b - t_a over +-range_ps.

    ``bins[i]`` counts delays in [-range_ps + i*bin_width_ps,
    -range_ps + (i+1)*bin_width_ps), with the final bin closed on the right
    so the covered interval is exactly [-range_ps, +range_ps].
    """

    bin_width_ps: int
    range_ps: int
    bins: np.ndarray

    def bin_centers(self) -> np.ndarray:
        edges = -self.range_ps + self.bin_width_ps * np.arange(len(self.bins))
        return edges + 0.5 * self.bin_width_ps


@dataclass(frozen=True)
class AccidentalEstimate:
    """Offset-window accidental estimate plus its analytic prediction."""

    count: int
    analytic: float
    offset_ps: int


@dataclass
class CoincidenceTally:
    """Windowed coincidence counts of one acquisition at one basis setting."""

    counts: BasisCounts
    duration_s: float
    delay_ps: int
    accidentals: Optional[AccidentalEstimate] = None
    histogram: Optional[CorrelationHistogram] = field(default=None, repr=False)


def _as_times(stream, name: str) -> np.ndarray:
    times = np.ascontiguousarray(stream, dtype=np.int64)
    if times.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if times.size > 1:
        down = times[1:] < times[:-1]
        if down.any():
            raise UnsortedStreamError(
                f"{name} is not sorted by time at index {int(down.argmax()) + 1}"
            )
    return times


class _Search:
    """Streams ``a``/``b`` (checked as ``names``) and ``index[i]``, the first B index at or
    after ``a[i] + base`` (4 bytes each where B's indices fit); ``first`` walks on from it."""

    def __init__(self, a, b, base: int, reach: int = 0, names=("stream_a", "stream_b")):
        a, b = _as_times(a, names[0]), _as_times(b, names[1])
        self.a, self.b, self.base, self.reach = a, b, base, reach
        self.index = np.searchsorted(b, a + base).astype(np.int32 if b.size < 2**31 else np.int64)

    def first(self, s: int, block: np.ndarray, t: int, start: Optional[np.ndarray] = None):
        """First B index at or after ``block + t`` (``block`` is ``a`` from ``s``), walked
        from ``start`` or ``index``; a ``t`` off ``[base, base + reach]`` is searched directly."""
        keys = block + t
        if start is None:
            if not 0 <= t - self.base <= self.reach:
                return np.searchsorted(self.b, keys)
            start = self.index[s : s + keys.size].astype(np.int64)
        b, n = self.b, self.b.size
        # most tags step over one B tag at most; the few left gallop on
        lo = np.minimum(start + (b.take(start, mode="clip") < keys), n)
        todo = np.flatnonzero(b.take(lo, mode="clip") < keys)
        width = np.ones_like(todo)
        while todo.size:  # strides of 1, 2, 4, ... tags; past the key, from 1 again
            p = lo[todo] + (width - 1)
            past = (p < n) & (b.take(p, mode="clip") < keys[todo])
            lo[todo[past]] = p[past] + 1
            keep = past | (width > 1)
            todo, width = todo[keep], np.where(past, 2 * width, 1)[keep]
        return lo


def _half_window(window_ps: int, mode: str) -> int:
    if mode not in WINDOW_MODES:
        raise ValueError(f"window mode must be one of {WINDOW_MODES}, got {mode!r}")
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError(f"window must be > 0 ps, got {window_ps}")
    # integer half width: |dt| <= w/2 on integer dt equals |dt| <= floor(w/2)
    return window_ps // 2 if mode == "full" else window_ps


def cross_correlation(
    stream_a, stream_b, bin_width_ps: int, range_ps: int, *, search: Optional[_Search] = None
) -> CorrelationHistogram:
    """Delay histogram of all pairwise t_b - t_a within +-range_ps.

    Each A tag's B range starts at its search bound at -range_ps, and its
    upper edge is walked to from there, so the cost is one binary search
    per A tag plus the number of in-range pairs, never the full n^2.

    Raises:
        UnsortedStreamError: if either stream is not time-ordered.
        ValueError: on a non-positive bin width or a range that is not a
            multiple of the bin width.
    """
    bin_width_ps = int(bin_width_ps)
    range_ps = int(range_ps)
    if bin_width_ps <= 0:
        raise ValueError("bin width must be > 0")
    if range_ps < bin_width_ps:
        raise ValueError("range must be >= bin width")
    if range_ps % bin_width_ps != 0:
        raise ValueError("range must be an integer multiple of the bin width")
    search = search or _Search(stream_a, stream_b, -range_ps)
    a, b = search.a, search.b

    n_bins = 2 * range_ps // bin_width_ps
    bins = np.zeros(n_bins, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return CorrelationHistogram(bin_width_ps, range_ps, bins)

    # the histogram adds up over blocks of A, so the pair list is built one
    # block at a time and never for the whole stream
    for s in range(0, a.size, _BLOCK):
        block = a[s : s + _BLOCK]
        lo = search.first(s, block, -range_ps)
        counts = search.first(s, block, range_ps + 1, start=lo) - lo
        # B index of each in-range pair: its rank in the pair list, shifted
        # per A tag from the start of that tag's run in the list to its ``lo``
        lo[1:] -= np.cumsum(counts[:-1])
        flat = np.arange(counts.sum(), dtype=np.int64) + np.repeat(lo, counts)
        delays = b[flat] - np.repeat(block, counts)
        idx = np.minimum((delays + range_ps) // bin_width_ps, n_bins - 1)
        bins += np.bincount(idx, minlength=n_bins)
    return CorrelationHistogram(bin_width_ps, range_ps, bins)


def find_peak_delay(hist: CorrelationHistogram) -> float:
    """Center of the maximum histogram bin.

    Ties are broken toward the smallest absolute delay, and between +-d
    toward the negative one.

    Raises:
        NoPeakError: if every bin is zero.
    """
    counts = np.asarray(hist.bins)
    if counts.size == 0 or int(counts.max(initial=0)) == 0:
        raise NoPeakError("histogram has no counts")
    centers = hist.bin_centers()
    order = np.lexsort((centers, np.abs(centers), -counts))
    return float(centers[order[0]])


def count_coincidences(
    stream_a,
    stream_b,
    window_ps: int,
    delay_ps: int = 0,
    mode: str = "full",
    *, search: Optional[_Search] = None,
) -> np.ndarray:
    """Greedy one-to-one coincidence matching between two sorted streams.

    A pair (i, j) matches when ``|t_b[j] - t_a[i] - delay| <= w`` with w the
    half window; tags are consumed in time order and each tag is used at most
    once, earlier candidates winning.  Returns the matched index pairs as an
    (n, 2) array; ``len(result)`` is the coincidence count.

    Raises:
        UnsortedStreamError: if either stream is not time-ordered.
    """
    hw = _half_window(window_ps, mode)
    delay_ps = int(round(delay_ps))
    search = search or _Search(stream_a, stream_b, delay_ps - hw)

    if search.a.size == 0 or search.b.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return _greedy_match(search, hw, delay_ps)


def _greedy_match(search: _Search, hw: int, delay: int) -> np.ndarray:
    """Exact greedy matching, vectorized via candidate-interval segmentation.

    Walks from ``search`` give each A tag its candidate interval ``[lo, hi)``
    of B indices, the tags with ``|t_b - t_a - delay| <= hw``.
    Tags with an empty interval can never match and are dropped; the rest
    are split into segments where consecutive intervals stop overlapping.
    Within a segment the intervals overlap in a chain, so their union is one
    run of B indices that are all candidates of some A tag in it: the
    segment's B side is ``[lo of its first tag, hi of its last)``, in the
    indices of the full stream, and B tags no A tag can reach never fall
    inside one.  Segments are independent under the greedy rule: one with a
    single tag on either side yields exactly one match (first against
    first), and only genuinely contested segments fall back to the scalar
    two-pointer walk.

    A is processed in blocks of about ``_BLOCK`` tags, each ending where two
    consecutive A windows are disjoint (``a[i] - a[i-1] > 2*hw``), so no
    segment spans two blocks and the matches come out as for one block.
    """
    a = search.a
    out = np.empty((min(a.size, search.b.size), 2), dtype=np.int64)
    n_out = start = 0
    while start < a.size:
        end = min(start + _BLOCK, a.size)
        while end < a.size:
            cut = np.flatnonzero(np.diff(a[end - 1 : end + _BLOCK]) > 2 * hw)
            if cut.size:
                end += int(cut[0])
                break
            end = min(end + _BLOCK, a.size)
        n_out = _match_block(a[start:end], start, search, hw, delay, out, n_out)
        start = end
    return out[:n_out]


def _match_block(
    a: np.ndarray, offset: int, search: _Search, hw: int, delay: int, out: np.ndarray, n_out: int
) -> int:
    """Match one block of A (its first tag at ``offset``) into ``out`` from
    row ``n_out``; returns the row after the last match."""
    lo = search.first(offset, a, delay - hw)
    hi = search.first(offset, a, delay + hw + 1, start=lo)
    keep = np.flatnonzero(hi > lo)
    if keep.size == 0:
        return n_out
    lo = lo[keep]
    hi = hi[keep]

    new_seg = np.empty(keep.size, dtype=bool)
    new_seg[0] = True
    np.greater_equal(lo[1:], hi[:-1], out=new_seg[1:])
    seg_start = np.flatnonzero(new_seg)
    seg_end = np.append(seg_start[1:], keep.size)
    b_start = lo[seg_start]
    b_end = hi[seg_end - 1]

    trivial = (seg_end - seg_start == 1) | (b_end - b_start == 1)

    # B index matched to each kept A tag, -1 where it stays unmatched
    match = np.full(keep.size, -1, dtype=np.int64)
    match[seg_start[trivial]] = b_start[trivial]
    for s in np.flatnonzero(~trivial):
        sa, sb = int(seg_start[s]), int(b_start[s])
        t_a = (a[keep[sa : seg_end[s]]] + delay).tolist()
        t_b = search.b[sb : b_end[s]].tolist()
        i = j = 0
        while i < len(t_a) and j < len(t_b):
            d = t_b[j] - t_a[i]
            if d < -hw:
                j += 1
            elif d > hw:
                i += 1
            else:
                match[sa + i] = sb + j
                i += 1
                j += 1

    hit = np.flatnonzero(match >= 0)
    n_hit = hit.size
    np.add(keep[hit], offset, out=out[n_out : n_out + n_hit, 0])
    out[n_out : n_out + n_hit, 1] = match[hit]
    return n_out + n_hit


def estimate_accidentals(
    stream_a,
    stream_b,
    window_ps: int,
    offset_ps: int,
    duration_s: float,
    delay_ps: int = 0,
    mode: str = "full",
    *, search: Optional[_Search] = None,
) -> AccidentalEstimate:
    """Accidental coincidences measured in a window displaced from the peak.

    Counts coincidences at ``delay + offset``, far enough from the true peak
    that only uncorrelated pairs contribute, and reports the analytic
    expectation ``S_a * S_b * window * duration`` alongside.

    Raises:
        ValueError: if the offset is closer than 10 windows or the duration
            is not positive.
    """
    window_ps = int(window_ps)
    offset_ps = int(offset_ps)
    if abs(offset_ps) < 10 * window_ps:
        raise ValueError(
            f"offset must be at least 10 windows ({10 * window_ps} ps), got {offset_ps}"
        )
    if duration_s <= 0:
        raise ValueError("duration must be > 0")
    delay, hw = delay_ps + offset_ps, _half_window(window_ps, mode)
    search = search or _Search(stream_a, stream_b, int(round(delay)) - hw)
    matches = count_coincidences(search.a, search.b, window_ps, delay, mode, search=search)
    width_s = window_ps * 1e-12 if mode == "full" else 2 * window_ps * 1e-12
    analytic = search.a.size * search.b.size * width_s / duration_s
    return AccidentalEstimate(count=len(matches), analytic=analytic, offset_ps=offset_ps)


def tally_basis(
    alice_tags: np.ndarray,
    bob_tags: np.ndarray,
    *,
    window_ps: int,
    duration_s: float,
    delay_ps: Optional[int] = None,
    hist_bin_ps: int = 50,
    hist_range_ps: int = 5000,
    accidental_offset_ps: Optional[int] = None,
    mode: str = "full",
) -> CoincidenceTally:
    """Analyze one acquisition: align, match, and classify by detector port.

    ``alice_tags`` and ``bob_tags`` are structured timetag arrays (see
    ``mcfqkd.photonsim.TAG_DTYPE``); transmitted ports are even channels,
    reflected ports odd.  When ``delay_ps`` is None the peak of the
    cross-correlation histogram is used; a featureless histogram falls back
    to zero delay.
    """
    if duration_s <= 0:
        raise ValueError("duration must be > 0")
    hw, edge = _half_window(window_ps, mode), int(hist_range_ps)
    d, off = (-edge if delay_ps is None else int(round(delay_ps))), int(accidental_offset_ps or 0)
    # one search at the lowest window start, the histogram's only if the delay is within +-range
    base = min(d - hw + min(off, 0), -edge if abs(d) <= edge else d)
    reach, names = 2 * (edge + hw) + abs(off), ("alice_tags", "bob_tags")
    search = _Search(alice_tags["time_ps"], bob_tags["time_ps"], base, reach, names)
    t_a, t_b = search.a, search.b

    hist = cross_correlation(t_a, t_b, hist_bin_ps, hist_range_ps, search=search)
    if delay_ps is None:
        try:
            delay_ps = find_peak_delay(hist)
        except NoPeakError:
            delay_ps = 0
    # the delay every pass matches at is the one reported
    delay_ps = int(round(delay_ps))

    pairs = count_coincidences(t_a, t_b, window_ps, delay_ps, mode, search=search)
    # port combination of each match, 2 * (A reflected) + (B reflected); the
    # matches are freed before the accidental pass
    combo = 2 * (alice_tags["channel"][pairs[:, 0]] % 2) + bob_tags["channel"][pairs[:, 1]] % 2
    del pairs
    counts = BasisCounts(*(int(c) for c in np.bincount(combo, minlength=4)))
    del combo

    accidentals = None
    if accidental_offset_ps is not None:
        accidentals = estimate_accidentals(
            t_a, t_b, window_ps, accidental_offset_ps, duration_s, delay_ps, mode, search=search
        )
    return CoincidenceTally(
        counts=counts,
        duration_s=duration_s,
        delay_ps=delay_ps,
        accidentals=accidentals,
        histogram=hist,
    )

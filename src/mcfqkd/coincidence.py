"""Timetag stream analysis: cross-correlation, windowed coincidence matching
and accidental-coincidence estimation.

All operations work on sorted ``int64`` picosecond timestamp arrays and use
integer arithmetic throughout, so results stay exact even for timestamps far
beyond 2**53 (a day of picoseconds does not fit a double).

One search of the A stream into the B stream finds, for every A tag, the
first B tag at or after its lowest window start: per block of A, a merge of
the block's keys with the B tags they span.  Every other window edge is
walked to from there, one gather and comparison per A tag over the one B tag
most have in a window, and a gallop over the few left.  ``tally_basis``
takes two ``photonsim.Stream``, checked where they were made, and builds
the one search all its passes share (their private ``search`` argument); a
pass called alone checks its own inputs.

Cost: a pass walks A in blocks of ``_BLOCK`` tags at about 20 numpy function
and method calls a block (operators besides): a 506k-tag tally takes 24
blocks, 48 walks and about 460 calls, where blocks of 2**14 took 186 walks
and 2,234 calls.  Each call releases the GIL for its loop and takes it back
after, so two threads wait on each other at short calls, not at long ones.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .photonsim import Stream, UnsortedStreamError
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

#: A tags per block of the passes: a block's scratch, four ``int64`` per tag
#: (2 MiB), is reused by every block, whatever the stream length, and each
#: thread keeps its own (``_THREAD.scratch``) from one acquisition to the next
_BLOCK, _THREAD = 1 << 16, threading.local()


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
    accidentals: AccidentalEstimate
    histogram: CorrelationHistogram = field(repr=False)


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
    """Times ``a``/``b`` of two streams (a ``Stream``'s, or arrays checked as ``names``) and
    ``index[i]``, the first B index at or after ``a[i] + base`` (4 bytes each where B's indices
    fit); ``windows`` walks on from it."""

    def __init__(self, a, b, base: int, names=("stream_a", "stream_b")):
        a, b = (
            s.times if isinstance(s, Stream) else _as_times(s, n) for s, n in zip((a, b), names)
        )
        self.a, self.b, self.base = a, b, base
        self.index = np.empty(a.size, dtype=np.int32 if b.size < 2**31 else np.int64)
        for s in range(0, a.size, _BLOCK):
            keys = a[s : s + _BLOCK] + base
            lo, hi = np.searchsorted(b, keys[[0, -1]]).tolist()
            x0 = int(keys[0])
            if int(keys[-1]) - x0 >= 1 << 62:  # too wide a block for the shifted keys
                self.index[s : s + keys.size] = np.searchsorted(b, keys)
                continue
            # the keys and the B tags from the first key to the last as 2*(key - x0) and
            # 2*(t - x0) + 1, sorted (a merge of two runs): each B tag below a key comes
            # before it, so the key's position less its rank counts them
            merged = np.concatenate([keys - x0, b[lo:hi] - x0])
            merged <<= 1
            merged[keys.size :] |= 1
            merged.sort(kind="stable")
            pos = np.flatnonzero(np.bitwise_and(merged, 1, out=merged) == 0)
            self.index[s : s + keys.size] = pos - np.arange(-lo, keys.size - lo)

    def blocks(self, hw: Optional[int] = None) -> list:
        """Bounds ``(s, e)`` of blocks of about ``_BLOCK`` A tags; with ``hw`` each ends where two
        A windows are disjoint (``a[e] - a[e-1] > 2*hw``), so no matching segment spans two."""
        a, ends = self.a, [0]
        while ends[-1] < a.size:
            e = min(ends[-1] + _BLOCK, a.size)
            while hw is not None and e < a.size and a[e] - a[e - 1] <= 2 * hw:
                gap = np.flatnonzero(np.diff(a[e - 1 : e + _BLOCK]) > 2 * hw)
                e = e + int(gap[0]) if gap.size else min(e + _BLOCK, a.size)
            ends.append(e)
        return list(zip(ends, ends[1:]))

    def windows(self, bounds: list, t_lo: int, t_hi: int):
        """Per block ``(s, e)``: ``s``, ``e`` and the first B indices ``lo``/``hi`` at or after
        ``a[s:e] + t_lo``/``t_hi``, in the thread's scratch (so one pass at a time per thread);
        ``lo`` walked on from ``index``, so ``base <= t_lo`` must hold, ``hi`` from ``lo``."""
        m = max((e - s for s, e in bounds), default=0)
        if getattr(_THREAD, "scratch", None) is None or _THREAD.scratch.shape[1] < m:
            _THREAD.scratch = np.empty((4, m + m // 8), dtype=np.int64)
        for s, e in bounds if self.b.size else []:
            keys, lo, hi, tmp = _THREAD.scratch[:, : e - s]
            lo[:] = self.index[s:e]
            if t_lo != self.base:
                self._walk(lo, np.add(self.a[s:e], t_lo, out=keys), tmp)
            hi[:] = lo
            yield s, e, lo, self._walk(hi, np.add(self.a[s:e], t_hi, out=keys), tmp)

    def _walk(self, lo: np.ndarray, keys: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Walk ``lo``, non-decreasing B indices, in place on to the first at or after ``keys``."""
        b, n = self.b, self.b.size
        # one gather and comparison steps over the one B tag most tags have; the few left gallop
        lo += b.take(lo, mode="clip", out=tmp) < keys
        if lo[-1] > n:
            np.minimum(lo, n, out=lo)
        todo = np.flatnonzero(b.take(lo, mode="clip", out=tmp) < keys)
        width = np.ones_like(todo)
        while todo.size:  # strides of 1, 2, 4, ... tags; past the key, from 1 again
            p = lo[todo] + (width - 1)
            past = (p < n) & (b.take(p, mode="clip") < keys[todo])
            lo[todo[past]] = p[past] + 1
            keep = past | (width > 1)
            todo, width = todo[keep], np.where(past, 2 * width, 1)[keep]
        return lo


def _half_window(window_ps: int) -> int:
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError(f"window must be > 0 ps, got {window_ps}")
    # integer half width: |dt| <= w/2 on integer dt equals |dt| <= floor(w/2)
    return window_ps // 2


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
    # the first pair of each tag is binned at once (a tag without one goes to a
    # dropped bin past the last), and the few further pairs from a list of them
    bins = np.zeros(n_bins + 1, dtype=np.int64)
    for s, e, lo, hi in search.windows(search.blocks(), -range_ps, range_ps + 1):
        shifted = a[s:e] - range_ps
        first = np.minimum((b.take(lo, mode="clip") - shifted) // bin_width_ps, n_bins - 1)
        bins += np.bincount(np.where(hi > lo, first, n_bins), minlength=n_bins + 1)
        more = np.flatnonzero(hi - lo > 1)
        counts = hi[more] - lo[more] - 1
        ends = np.cumsum(counts)
        # B index of each further pair: its rank in the list, shifted per A tag
        # from the start of that tag's run in the list to its ``lo + 1``
        flat = np.arange(counts.sum()) + np.repeat(lo[more] + 1 - ends + counts, counts)
        delays = b.take(flat) - np.repeat(shifted[more], counts)
        bins += np.bincount(np.minimum(delays // bin_width_ps, n_bins - 1), minlength=n_bins + 1)
    return CorrelationHistogram(bin_width_ps, range_ps, bins[:n_bins])


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
    *, search: Optional[_Search] = None,
) -> np.ndarray:
    """Greedy one-to-one coincidence matching between two sorted streams.

    A pair (i, j) matches when ``|t_b[j] - t_a[i] - delay| <= w`` with w the
    half window; tags are consumed in time order and each tag is used at most
    once, earlier candidates winning.  Returns the matched index pairs as an
    (n, 2) array; ``len(result)`` is the coincidence count.

    Walks give each A tag its candidate interval ``[lo, hi)`` of B indices.
    Tags with an empty one can never match and are dropped; the rest are
    split into segments where consecutive intervals stop overlapping.  Within
    a segment the intervals overlap in a chain, so its B side is one run,
    ``[lo of its first tag, hi of its last)``, and segments are independent
    under the greedy rule: a segment of one A tag matches its first
    candidate, and only longer ones take the scalar two-pointer walk.  The
    blocks of A (``search.blocks(hw)``) end where two consecutive A windows
    are disjoint, so no segment spans two blocks.

    Raises:
        UnsortedStreamError: if either stream is not time-ordered.
    """
    hw = _half_window(window_ps)
    delay_ps = int(round(delay_ps))
    search = search or _Search(stream_a, stream_b, delay_ps - hw)
    a, b = search.a, search.b
    out, n_out = np.empty((min(a.size, b.size), 2), dtype=np.int64), 0
    for s, e, lo, hi in search.windows(search.blocks(hw), delay_ps - hw, delay_ps + hw + 1):
        n_out = _match_block(a[s:e], s, lo, hi, b, hw, delay_ps, out, n_out)
    return out[:n_out]


def _match_block(a, offset: int, lo, hi, b, hw: int, delay: int, out, n_out: int) -> int:
    """Match one block of A (its first tag at ``offset``, its candidate intervals
    ``[lo, hi)``) into ``out`` from row ``n_out``; returns the row after the last match."""
    keep = np.flatnonzero(hi > lo)
    if keep.size == 0:
        return n_out
    lo, hi = lo[keep], hi[keep]

    new_seg = np.empty(keep.size, dtype=bool)
    new_seg[0] = True
    np.greater_equal(lo[1:], hi[:-1], out=new_seg[1:])
    # B index matched to each kept A tag, -1 where it stays unmatched: a segment
    # of one A tag matches its first candidate, and longer ones walk
    match = lo
    if not new_seg.all():
        seg_start = np.flatnonzero(new_seg)
        seg_end = np.append(seg_start[1:], keep.size)
        long = np.flatnonzero(seg_end - seg_start > 1)
        for sa, se in zip(seg_start[long].tolist(), seg_end[long].tolist()):
            sb = int(match[sa])
            t_a = (a[keep[sa:se]] + delay).tolist()
            t_b = b[sb : hi[se - 1]].tolist()
            match[sa:se] = -1
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
        keep, match = keep[hit], match[hit]

    n_hit = keep.size
    np.add(keep, offset, out=out[n_out : n_out + n_hit, 0])
    out[n_out : n_out + n_hit, 1] = match
    return n_out + n_hit


def estimate_accidentals(
    stream_a,
    stream_b,
    window_ps: int,
    offset_ps: int,
    duration_s: float,
    delay_ps: int = 0,
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
    if not math.isfinite(offset_ps):
        raise ValueError(f"offset_ps must be finite, got {offset_ps}")
    window_ps = int(window_ps)
    offset_ps = int(offset_ps)
    if abs(offset_ps) < 10 * window_ps:
        raise ValueError(
            f"offset must be at least 10 windows ({10 * window_ps} ps), got {offset_ps}"
        )
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    delay, hw = delay_ps + offset_ps, _half_window(window_ps)
    search = search or _Search(stream_a, stream_b, int(round(delay)) - hw)
    matches = count_coincidences(search.a, search.b, window_ps, delay, search=search)
    analytic = search.a.size * search.b.size * (window_ps * 1e-12) / duration_s
    return AccidentalEstimate(count=len(matches), analytic=analytic, offset_ps=offset_ps)


def tally_basis(
    alice: Stream,
    bob: Stream,
    *,
    window_ps: int,
    duration_s: float,
    accidental_offset_ps: int,
    hist_bin_ps: int = 50,
    hist_range_ps: int = 5000,
) -> CoincidenceTally:
    """Analyze one acquisition: align, match, classify by detector port and
    count the accidentals in the window ``accidental_offset_ps`` off the peak.

    ``alice`` and ``bob`` are the two arms' streams, each checked where it was
    made; transmitted ports are even channels, reflected ports odd.  The
    delay is the peak of the cross-correlation histogram, or zero when the
    histogram is empty.
    """
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    if not math.isfinite(accidental_offset_ps):
        raise ValueError(f"accidental_offset_ps must be finite, got {accidental_offset_ps}")
    # the peak lies within +-range, so one search at the lowest window start serves every pass
    base = -int(hist_range_ps) - _half_window(window_ps) + min(int(accidental_offset_ps), 0)
    search = _Search(alice, bob, base)
    t_a, t_b = search.a, search.b

    hist = cross_correlation(t_a, t_b, hist_bin_ps, hist_range_ps, search=search)
    try:
        delay_ps = int(round(find_peak_delay(hist)))
    except NoPeakError:
        delay_ps = 0

    pairs = count_coincidences(t_a, t_b, window_ps, delay_ps, search=search)
    # reflected (odd) ports of each match's A and B tag, counted by port combination;
    # a code is 2*channel + flag
    ra = alice.codes[pairs[:, 0]] >> 1 & 1
    rb = bob.codes[pairs[:, 1]] >> 1 & 1
    mm, ma, mb = (int(np.count_nonzero(r)) for r in (ra & rb, ra, rb))
    counts = BasisCounts(len(pairs) - ma - mb + mm, mb - mm, ma - mm, mm)
    del pairs, ra, rb  # freed before the accidental pass

    accidentals = estimate_accidentals(
        t_a, t_b, window_ps, accidental_offset_ps, duration_s, delay_ps, search=search
    )
    return CoincidenceTally(counts, duration_s, delay_ps, accidentals, hist)

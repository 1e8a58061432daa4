"""Timetag stream analysis: cross-correlation, windowed coincidence matching
and accidental-coincidence estimation.

All operations work on sorted ``int64`` picosecond timestamps in [0, 2**60) and
use integer arithmetic throughout, so results stay exact even for timestamps far
beyond 2**53 (a day of picoseconds does not fit a double).

One search of A into B spans every window of its passes: per block of A, a
merge finds each tag's first B tag in the span, one gather keeps its delay
and a second finds the few tags with more than one B tag there.  A pass
compares every other tag's delay with its window and searches B for the few.
Every pass takes two ``photonsim.Stream``, checked where they were made.
``tally_basis`` builds the search its two passes share; a pass called alone
searches its own window.  The accidentals come from the histogram's bins far
from the peak, with no pass of their own.

Cost: a 506k-tag tally takes 8 blocks of ``_BLOCK`` tags, two gathers of B
per A tag, both in the search, 1 MiB of delays, 16 binary searches for 46
tags and about 300 numpy function and method calls, operators besides.  Each
call releases the GIL for its loop and takes it back after, so two threads
wait on each other at short calls, not at long ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .photonsim import Stream
from .qkdmath import BasisCounts, UndefinedVisibilityError, qber_from_visibility
from .qkdmath import visibility_from_counts

__all__ = [
    "ACCIDENTAL_GAP_PS",
    "HIST_BIN_PS",
    "HIST_RANGE_PS",
    "CorrelationHistogram",
    "AccidentalEstimate",
    "BasisTally",
    "NoPeakError",
    "cross_correlation",
    "find_peak_delay",
    "count_coincidences",
    "estimate_accidentals",
    "tally_basis",
]

#: A tags per block of the search and the passes: a block's temporaries, a few
#: ``int64`` per tag at most, do not grow with the stream
_BLOCK = 1 << 16

#: the accidentals' histogram bins lie this far from the peak delay or farther: a
#: true pair's delay stays within 2 * ceil(6 sigma) = 600 ps of the true delay at
#: the presets' 50 ps jitter, and the peak within half a 50 ps bin of it
ACCIDENTAL_GAP_PS = 1000

#: the tally's histogram grid, 50 ps bins over +-5 ns: its outer bins lie range - bin + 1 ps
#: from 0, past ``ACCIDENTAL_GAP_PS``, so the accidentals keep a bin at every peak delay
HIST_BIN_PS, HIST_RANGE_PS = 50, 5000


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
    """Accidental coincidences in the window at the peak, over the whole acquisition (counts,
    not rates): ``count``, the histogram's bins ``ACCIDENTAL_GAP_PS`` or more from the peak
    scaled to the window, ``sigma``, its Poisson error, and ``analytic``, the expected
    ``S_a * S_b * window * duration`` with the window's integer delays in ps."""

    count: float
    sigma: float
    analytic: float


@dataclass(frozen=True)
class BasisTally:
    """One acquisition at one basis setting: its port counts over ``duration_s`` in the
    window at the peak delay, their rate, visibility and QBER (``None`` where the counts
    leave the visibility undefined), and the accidentals."""

    counts: BasisCounts
    duration_s: float
    delay_ps: int
    coincidence_rate_cps: float
    visibility: Optional[float]
    qber: Optional[float]
    accidentals: AccidentalEstimate


class _Search:
    """Times ``a``/``b`` of two streams, in [0, 2**60) ps, ``index[i]``, the first B index at or
    after ``a[i] + base`` (4 bytes each where B's indices fit), and ``bounds`` of blocks of about
    ``_BLOCK`` A tags that end where two A windows of half width ``hw`` are disjoint.  If B has
    tags: ``delay[i]``, that B tag's delay less ``base``, clipped to ``[-1, top - base]`` where
    it is past the last B tag or the span ``[a[i] + base, a[i] + top)`` (2 bytes each below
    ``2**15 - 1`` ps of span), and ``multi``, per block, its tags (less its start) with more
    than one B tag in the span."""

    def __init__(self, alice: Stream, bob: Stream, base: int, top: int, hw: int):
        a, b = alice.times, bob.times
        self.a, self.b, self.base, self.bounds, self.multi, e = a, b, base, [], [], 0
        self.index = np.empty(a.size, dtype=np.int32 if b.size < 2**31 else np.int64)
        w = top - base
        dtype = np.int16 if w < 2**15 - 1 else np.int32 if w < 2**31 - 1 else np.int64
        self.delay = np.empty(a.size, dtype=dtype)
        while e < a.size:
            s, e = e, min(e + _BLOCK, a.size)
            while e < a.size and a[e] - a[e - 1] <= 2 * hw:
                gap = np.flatnonzero(np.diff(a[e - 1 : e + _BLOCK]) > 2 * hw)
                e = e + int(gap[0]) if gap.size else min(e + _BLOCK, a.size)
            self.bounds.append((s, e))
            keys = a[s:e] + base
            lo, hi = np.searchsorted(b, keys[[0, -1]]).tolist()
            # keys and B tags from the first key to the last as 2*(key - x0) and 2*(t - x0) + 1,
            # below 2**61 as a block spans under 2**60 ps, sorted (a merge of two runs): each B
            # tag below a key comes before it, so the key's position less its rank counts them
            x0 = int(keys[0])
            merged = np.concatenate([keys, b[lo:hi]])
            merged -= x0
            merged <<= 1
            merged[keys.size :] |= 1
            merged.sort(kind="stable")
            index = np.flatnonzero(np.bitwise_and(merged, 1, out=merged) == 0)
            index -= np.arange(-lo, keys.size - lo)
            self.index[s:e] = index
            if b.size:  # a span holds more than one B tag if it holds the one after ``index``
                t = b.take(index, mode="clip")
                np.clip(np.subtract(t, keys, out=t), -1, w, out=self.delay[s:e])
                index += 1
                m = np.flatnonzero(np.subtract(b.take(index, mode="clip", out=t), keys, out=t) < w)
                self.multi.append(m[index[m] < b.size])

    def windows(self, t_lo: int, t_hi: int):
        """Per block where B has tags: ``s``, ``e``, ``sel``, whether each tag's B tag ``index``
        has a delay in ``[t_lo, t_hi)`` (``base <= t_lo <= t_hi <= top``), the one B tag in its
        window unless the tag is in the block's ``multi``, ``m``, and ``lo``/``hi``, the first B
        indices at or after ``a[s:e][m] + t_lo``/``t_hi``."""
        a, edges = self.a, np.array([t_lo, t_hi])
        for (s, e), m in zip(self.bounds, self.multi):
            d, lo, hi = self.delay[s:e], m, m
            sel = (d >= t_lo - self.base) & (d < t_hi - self.base)
            if m.size:  # one binary search for both bounds of each tag of ``m``
                lo, hi = np.searchsorted(self.b, a[s:e][m, None] + edges).T
            yield s, e, sel, m, lo, hi


def _half_window(window_ps: int) -> int:
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError(f"window must be > 0 ps, got {window_ps}")
    # integer half width: |dt| <= w/2 on integer dt equals |dt| <= floor(w/2)
    return window_ps // 2


def cross_correlation(
    stream_a: Stream, stream_b: Stream, bin_width_ps: int, range_ps: int,
    *, search: Optional[_Search] = None,
) -> CorrelationHistogram:
    """Delay histogram of all pairwise t_b - t_a within +-range_ps.

    Each A tag's B range is read off its search, so the cost is one search
    per A tag plus the number of in-range pairs, never the full n^2.

    Raises:
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
    search = search or _Search(stream_a, stream_b, -range_ps, range_ps + 1, 0)
    a, b = search.a, search.b

    n_bins = 2 * range_ps // bin_width_ps
    # each tag's one pair in range is binned from its delay, and the pairs of
    # the tags ``m`` from a list; a delay of +range_ps lands past the last bin
    bins = np.zeros(n_bins + 1, dtype=np.int64)
    for s, e, sel, m, lo, hi in search.windows(-range_ps, range_ps + 1):
        sel[m] = False
        first = search.delay[s:e][sel] - (-range_ps - search.base)
        counts = hi - lo
        ends = np.cumsum(counts)
        # B index of each listed pair: its rank in the list, shifted per A tag
        # from the start of that tag's run in the list to its ``lo``
        flat = np.arange(counts.sum()) + np.repeat(lo - ends + counts, counts)
        delays = b.take(flat) - np.repeat(a[s:e][m] - range_ps, counts)
        for d in (first, delays):
            bins += np.bincount(d // bin_width_ps, minlength=n_bins + 1)
    bins[n_bins - 1] += bins[n_bins]
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
    stream_a: Stream,
    stream_b: Stream,
    window_ps: int,
    delay_ps: int = 0,
    *, search: Optional[_Search] = None,
) -> np.ndarray:
    """Greedy one-to-one coincidence matching between two sorted streams.

    A pair (i, j) matches when ``|t_b[j] - t_a[i] - delay| <= w`` with w the
    half window; tags are consumed in time order and each tag is used at most
    once, earlier candidates winning.  Returns the matched index pairs as an
    (n, 2) array; ``len(result)`` is the coincidence count.

    The search gives each A tag its candidates: the one B tag in its window,
    read off its kept delay, or, for the few with more than one B tag in the
    search's span, the interval ``[lo, hi)`` of B indices a binary search finds.
    Tags with none can never match and are dropped; the rest are split into
    segments where consecutive intervals stop overlapping.  Within
    a segment the intervals overlap in a chain, so its B side is one run,
    ``[lo of its first tag, hi of its last)``, and segments are independent
    under the greedy rule: a segment of one A tag matches its first
    candidate, and only longer ones take the scalar two-pointer walk.  The
    search's blocks of A end where two consecutive A windows are disjoint,
    so no segment spans two blocks.
    """
    hw = _half_window(window_ps)
    delay_ps = int(round(delay_ps))
    search = search or _Search(stream_a, stream_b, delay_ps - hw, delay_ps + hw + 1, hw)
    a, b = search.a, search.b
    out, n_out = np.empty((min(a.size, b.size), 2), dtype=np.int64), 0
    for s, e, sel, m, lo, hi in search.windows(delay_ps - hw, delay_ps + hw + 1):
        # a tag of ``m`` is kept where its search found B tags, with their bounds
        sel[m] = found = hi > lo
        keep = np.flatnonzero(sel)
        first = last = search.index[s:e].take(keep)
        if found.any():
            last, at = first.copy(), np.searchsorted(keep, m[found])
            first[at], last[at] = lo[found], hi[found] - 1
        n_out = _match_block(a[s:e], s, keep, first, last, b, hw, delay_ps, out, n_out)
    return out[:n_out]


def _match_block(a, offset: int, keep, lo, last, b, hw: int, delay: int, out, n_out: int) -> int:
    """Match the tags ``keep`` of one block of A (its first tag at ``offset``), with their
    candidates, B tags ``lo`` to ``last`` (``last`` may be ``lo`` itself), into ``out`` from
    row ``n_out``; returns the row after the last match."""
    if keep.size == 0:
        return n_out
    new_seg = np.empty(keep.size, dtype=bool)
    new_seg[0] = True
    np.greater(lo[1:], last[:-1], out=new_seg[1:])
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
            t_b = b[sb : last[se - 1] + 1].tolist()
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
    hist: CorrelationHistogram,
    delay_ps: int,
    window_ps: int,
    n_a: int,
    n_b: int,
    duration_s: float,
) -> AccidentalEstimate:
    """Accidental coincidences in the window at ``delay_ps``, from the histogram's sidebands.

    The bins whose every integer delay lies ``ACCIDENTAL_GAP_PS`` or more from
    the peak hold only uncorrelated pairs, flat in the delay.  Their sum, over
    the integer delays they cover, times the window's ``2 * (window_ps // 2) + 1``
    is the estimate, beside the analytic ``S_a * S_b * window * duration`` of
    ``n_a`` and ``n_b`` tags: counts over the whole acquisition, not rates.

    Raises:
        ValueError: if no bin lies that far from the peak, or the duration is
            not positive.
    """
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    width = 2 * _half_window(window_ps) + 1
    # each bin's first and last integer delay; the last bin also holds +range
    first = -hist.range_ps + hist.bin_width_ps * np.arange(len(hist.bins))
    last = first + hist.bin_width_ps - 1
    last[-1:] += 1
    side = (last <= delay_ps - ACCIDENTAL_GAP_PS) | (first >= delay_ps + ACCIDENTAL_GAP_PS)
    if not side.any():
        raise ValueError(
            f"no histogram bin lies {ACCIDENTAL_GAP_PS} ps or more from the peak at {delay_ps} ps"
        )
    total, scale = int(hist.bins[side].sum()), width / int((last - first + 1)[side].sum())
    analytic = n_a * n_b * (width * 1e-12) / duration_s
    return AccidentalEstimate(count=total * scale, sigma=math.sqrt(total) * scale, analytic=analytic)


def tally_basis(
    alice: Stream,
    bob: Stream,
    *,
    window_ps: int,
    duration_s: float,
    hist_bin_ps: int = HIST_BIN_PS,
    hist_range_ps: int = HIST_RANGE_PS,
) -> BasisTally:
    """Analyze one acquisition: align, match, classify by detector port and
    estimate the accidentals from the histogram's sidebands.

    ``alice`` and ``bob`` are the two arms' streams, each checked where it was
    made; transmitted ports are even channels, reflected ports odd.  The
    delay is the peak of the cross-correlation histogram, or zero when the
    histogram is empty.
    """
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration_s must be finite and > 0, got {duration_s}")
    # the peak lies within +-range, so one search spanning its window serves both passes
    hw, reach = _half_window(window_ps), int(hist_range_ps)
    search = _Search(alice, bob, -reach - hw, reach + hw + 1, hw)

    hist = cross_correlation(alice, bob, hist_bin_ps, hist_range_ps, search=search)
    try:
        delay_ps = int(round(find_peak_delay(hist)))
    except NoPeakError:
        delay_ps = 0

    pairs = count_coincidences(alice, bob, window_ps, delay_ps, search=search)
    # reflected (odd) ports of each match's A and B tag, counted by port combination;
    # a code is 2*channel + flag
    ra = alice.codes[pairs[:, 0]] >> 1 & 1
    rb = bob.codes[pairs[:, 1]] >> 1 & 1
    mm, ma, mb = (int(np.count_nonzero(r)) for r in (ra & rb, ra, rb))
    counts = BasisCounts(len(pairs) - ma - mb + mm, mb - mm, ma - mm, mm)

    accidentals = estimate_accidentals(hist, delay_ps, window_ps, len(alice), len(bob), duration_s)
    try:
        visibility = visibility_from_counts(counts)
        qber = qber_from_visibility(visibility)
    except UndefinedVisibilityError:
        visibility = qber = None
    return BasisTally(
        counts, duration_s, delay_ps, counts.total / duration_s, visibility, qber, accidentals
    )

"""Unit tests for the coincidence engine against brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mcfqkd.coincidence import (
    ACCIDENTAL_GAP_PS,
    CorrelationHistogram,
    NoPeakError,
    count_coincidences,
    cross_correlation,
    estimate_accidentals,
    find_peak_delay,
    tally_basis,
)
from mcfqkd import coincidence
from mcfqkd.photonsim import Stream, UnsortedStreamError
from oracles import greedy_match_oracle, histogram_oracle, sideband_oracle


def make_tags(times, channels):
    """The stream of unflagged tags at ``times`` on ``channels``, Alice's 0/1 or Bob's 2/3."""
    times = np.array(times, dtype=np.int64)
    channels = np.broadcast_to(np.asarray(channels, dtype=np.uint8), times.shape)
    return Stream(times, 2 * channels, int(channels.max(initial=0)) >> 1)


def arms(t_a, t_b):
    """Alice's and Bob's streams of unflagged tags at ``t_a`` (channel 0) and ``t_b`` (channel 2)."""
    return make_tags(t_a, 0), make_tags(t_b, 2)


class TestCrossCorrelation:
    def test_shifted_copy_peaks_at_shift(self):
        rng = np.random.default_rng(0)
        a = np.sort(rng.integers(0, 10_000_000, 5000))
        hist = cross_correlation(*arms(a, a + 1000), bin_width_ps=50, range_ps=5000)
        assert find_peak_delay(hist) == pytest.approx(1025.0)
        peak_bin = int(np.argmax(hist.bins))
        assert hist.bins[peak_bin] >= 5000

    def test_independent_streams_flat(self):
        rng = np.random.default_rng(1)
        duration_ps = int(10e12)
        a = np.sort(rng.integers(0, duration_ps, 40_000))
        b = np.sort(rng.integers(0, duration_ps, 40_000))
        hist = cross_correlation(*arms(a, b), bin_width_ps=1000, range_ps=100_000)
        mean = hist.bins.mean()
        sigma = np.sqrt(mean)
        assert np.all(np.abs(hist.bins - mean) < 5 * sigma + 5)

    def test_matches_bruteforce_on_small_streams(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n_a = int(rng.integers(0, 400))
            n_b = int(rng.integers(0, 400))
            span = int(rng.integers(1000, 200_000))
            a = np.sort(rng.integers(0, span, n_a))
            b = np.sort(rng.integers(0, span, n_b))
            bw = int(rng.integers(10, 500))
            rng_ps = bw * int(rng.integers(1, 40))
            hist = cross_correlation(*arms(a, b), bw, rng_ps)
            np.testing.assert_array_equal(hist.bins, histogram_oracle(a, b, bw, rng_ps))

    def test_total_equals_pairs_in_range(self):
        a = np.array([0, 100, 200])
        b = np.array([50, 150, 10_000])
        hist = cross_correlation(*arms(a, b), bin_width_ps=50, range_ps=500)
        assert hist.bins.sum() == 6  # all combinations of the first two b tags

    def test_rejects_bad_binning(self):
        with pytest.raises(ValueError):
            cross_correlation(*arms([1], [2]), 0, 100)
        with pytest.raises(ValueError):
            cross_correlation(*arms([1], [2]), 30, 100)  # 100 not a multiple of 30
        with pytest.raises(ValueError):
            cross_correlation(*arms([1], [2]), 200, 100)


class TestFindPeakDelay:
    def test_single_incremented_bin(self):
        bins = np.zeros(200, dtype=np.int64)
        bins[90] = 7  # center -500 with bw=50, range 5000
        hist = CorrelationHistogram(50, 5000, bins)
        assert find_peak_delay(hist) == pytest.approx(-475.0)

    def test_flat_plus_one(self):
        bins = np.ones(100, dtype=np.int64)
        bins[40] += 1
        hist = CorrelationHistogram(100, 5000, bins)
        assert find_peak_delay(hist) == pytest.approx(-5000 + 40 * 100 + 50)

    def test_tie_prefers_smallest_absolute_then_negative(self):
        bins = np.zeros(10, dtype=np.int64)
        bins[2] = 5  # center -250
        bins[7] = 5  # center +250
        hist = CorrelationHistogram(100, 500, bins)
        assert find_peak_delay(hist) == pytest.approx(-250.0)

    def test_all_zero_raises(self):
        hist = CorrelationHistogram(50, 500, np.zeros(20, dtype=np.int64))
        with pytest.raises(NoPeakError):
            find_peak_delay(hist)


class TestCountCoincidences:
    def test_documented_example(self):
        pairs = count_coincidences(*arms([100, 500, 900], [150, 2000]), window_ps=300)
        assert pairs.tolist() == [[0, 0]]

    def test_identical_streams_all_match(self):
        a = np.arange(0, 100_000, 1000)
        pairs = count_coincidences(*arms(a, a), window_ps=10)
        assert len(pairs) == len(a)
        np.testing.assert_array_equal(pairs[:, 0], pairs[:, 1])

    def test_empty_stream(self):
        assert len(count_coincidences(*arms([], [1, 2, 3]), 100)) == 0
        assert len(count_coincidences(*arms([1, 2, 3], []), 100)) == 0

    @pytest.mark.parametrize(
        "times, index",
        [([0, 300, 200], 2), ([10, 5], 1), ([5, 1], 1)],
        ids=["0-300-200", "10-5", "5-1"],
    )
    def test_unsorted_message_names_stream_and_index(self, times, index):
        # the streams every pass takes are checked where they are made
        with pytest.raises(UnsortedStreamError, match=rf"^times are not sorted at index {index}$"):
            make_tags(times, 0)

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(120):
            n_a = int(rng.integers(0, 300))
            n_b = int(rng.integers(0, 300))
            span = int(rng.integers(100, 50_000))
            a = np.sort(rng.integers(0, span, n_a))
            b = np.sort(rng.integers(0, span, n_b))
            window = int(rng.integers(1, 2000))
            delay = int(rng.integers(-500, 500))
            got = count_coincidences(*arms(a, b), window, delay_ps=delay).tolist()
            expected = [list(p) for p in greedy_match_oracle(a, b, window, delay)]
            assert got == expected

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = np.sort(rng.integers(0, 1_000_000, 500))
        b = np.sort(rng.integers(0, 1_000_000, 500))
        base = count_coincidences(*arms(a, b), 400)
        shifted = count_coincidences(*arms(a + 10**9, b + 10**9), 400)
        np.testing.assert_array_equal(base, shifted)

    def test_count_bounded_by_smaller_stream(self):
        rng = np.random.default_rng(5)
        a = np.sort(rng.integers(0, 10_000, 50))
        b = np.sort(rng.integers(0, 10_000, 400))
        pairs = count_coincidences(*arms(a, b), 10_000)
        assert len(pairs) <= 50

    def test_exact_beyond_double_precision(self):
        # timestamps beyond 2**53 must still match exactly
        base = 2**59
        a = np.array([base, base + 1000], dtype=np.int64)
        b = np.array([base + 149, base + 1151], dtype=np.int64)
        pairs = count_coincidences(*arms(a, b), 300)
        assert pairs.tolist() == [[0, 0]]  # 151 > 150 excluded, 149 included

    def test_times_past_2_60_ps_rejected(self):
        # the search merges each block's keys with B shifted left by one bit
        # from the block's first key, which cannot overflow as every stream
        # holds times in [0, 2**60) ps: a block spanning 2**62 ps is refused
        # where its streams are made
        a = np.array([0, 10, 2**62 + 10**6, 2**62 + 2 * 10**6])
        b = np.array([20, 300, 2**62 + 10**6 + 25, 2**62 + 2 * 10**6 - 40])
        outside = r"^times must lie in \[0, 2\*\*60\) ps, got {}$"
        for times, channel in ((a, 0), (b, 2)):
            with pytest.raises(ValueError, match=outside.format(times[-1])):
                make_tags(times, channel)
        # tags near 2**63, where a tally's ``a + top`` would wrap
        t_a = 2**63 - 5000 + 1000 * np.arange(3)
        with pytest.raises(ValueError, match=outside.format(t_a[-1])):
            tally_basis(*arms(t_a, t_a + 10), window_ps=300, duration_s=1.0)


class TestBlockedPasses:
    """The histogram and the matcher walk A in blocks of ``_BLOCK`` tags.
    With blocks of a few tags they must still agree with the oracles and
    give the very bytes of a single whole-stream block."""

    def _whole_and_blocked(self, monkeypatch, block, a, b, window, delay, bw, hist_range):
        alice, bob = arms(a, b)
        with monkeypatch.context() as m:
            m.setattr(coincidence, "_BLOCK", 1 << 40)
            whole = count_coincidences(alice, bob, window, delay_ps=delay)
            whole_bins = cross_correlation(alice, bob, bw, hist_range).bins
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        pairs = count_coincidences(alice, bob, window, delay_ps=delay)
        bins = cross_correlation(alice, bob, bw, hist_range).bins
        assert pairs.dtype == np.int64 and pairs.shape == whole.shape
        assert pairs.tobytes() == whole.tobytes()
        np.testing.assert_array_equal(bins, whole_bins)
        assert pairs.tolist() == [list(p) for p in greedy_match_oracle(a, b, window, delay)]
        np.testing.assert_array_equal(bins, histogram_oracle(a, b, bw, hist_range))

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_dense_contested_streams(self, monkeypatch, block):
        rng = np.random.default_rng(40 + block)
        for _ in range(30):
            # spans of a few windows: most A windows overlap their neighbours
            window = int(rng.integers(1, 600))
            span = int(rng.integers(window, 60 * window + 2))
            a = np.sort(rng.integers(0, span, int(rng.integers(0, 200))))
            b = np.sort(rng.integers(0, span, int(rng.integers(0, 200))))
            delay = int(rng.integers(-window, window + 1))
            bw = int(rng.integers(1, 60))
            self._whole_and_blocked(
                monkeypatch, block, a, b, window, delay, bw, bw * int(rng.integers(1, 20))
            )

    @pytest.mark.parametrize("step", [100, 600, 601])
    def test_long_runs_without_a_safe_cut(self, monkeypatch, step):
        # window 600 (half width 300): a block may end only before a gap
        # > 600, so runs of 400 tags spaced by 100 or 600 have no cut inside
        # them and a spacing of 601 has one at every tag
        rng = np.random.default_rng(step)
        a = np.concatenate([start + step * np.arange(400) for start in (0, 10**6)])
        b = np.sort(np.concatenate([a + rng.integers(-400, 401, a.size), rng.integers(0, 2 * 10**6, 80)]))
        a, b = a + 1000, b + 1000  # after the draws: B's tags start at -400 ps
        for block in (1, 5, 64):
            self._whole_and_blocked(monkeypatch, block, a, b, 600, 37, 50, 2000)


def tally_and_histogram(monkeypatch, alice, bob, **kw):
    """``tally_basis``'s record and the histogram it built on the way."""
    made, build = [], coincidence.cross_correlation

    def recorded(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(coincidence, "cross_correlation", recorded)
        tally = tally_basis(alice, bob, **kw)
    (hist,) = made
    return tally, hist


class TestEstimateAccidentals:
    def test_poisson_streams_match_analytic(self):
        rng = np.random.default_rng(6)
        duration_s = 60.0
        rate = 100_000
        n = rng.poisson(rate * duration_s)
        a = np.sort(rng.integers(0, int(duration_s * 1e12), n))
        n = rng.poisson(rate * duration_s)
        b = np.sort(rng.integers(0, int(duration_s * 1e12), n))
        hist = cross_correlation(*arms(a, b), bin_width_ps=50, range_ps=5000)
        est = estimate_accidentals(hist, 0, 300, a.size, b.size, duration_s)
        assert est.analytic == pytest.approx(180.0, rel=0.05)
        # the sidebands cover 8,001 of the 10,001 integer delays: a 1.4% error on 180
        assert est.sigma == pytest.approx(math.sqrt(est.analytic * 301 / 8001), rel=0.05)
        assert abs(est.count - est.analytic) < 3 * est.sigma

    def test_correlated_peak_excluded(self):
        rng = np.random.default_rng(7)
        a = np.sort(rng.integers(0, int(1e12), 20_000))
        b = a + rng.integers(-20, 20, a.size)  # tightly correlated
        b.sort()
        hist = cross_correlation(*arms(a, b), bin_width_ps=50, range_ps=5000)
        delay = int(round(find_peak_delay(hist)))
        est = estimate_accidentals(hist, delay, 300, a.size, b.size, 1.0)
        # none of the 20k true coincidences reaches the sidebands: 0.12 accidentals expected
        assert hist.bins.sum() > 20_000 and est.count < 1

    def test_sidebands_start_a_gap_from_the_peak(self):
        # bins of 100 ps over +-2000: at a peak at 150 ps the bins up to [-1000, -901]
        # and from [1200, 1299] on lie 1 ns or more away, [-900, -801] and
        # [1100, 1199] do not; the last bin also holds +2000, so 1,901 delays
        bins = np.arange(1, 41, dtype=np.int64)
        hist = CorrelationHistogram(100, 2000, bins)
        est = estimate_accidentals(hist, 150, 300, 10**6, 2 * 10**6, 2.0)
        side = int(bins[:11].sum() + bins[32:].sum())
        assert sideband_oracle(bins.tolist(), 100, 2000, 150, ACCIDENTAL_GAP_PS) == (side, 1901)
        assert est.count == pytest.approx(side * 301 / 1901, rel=1e-15)
        assert est.sigma == pytest.approx(math.sqrt(side) * 301 / 1901, rel=1e-15)
        assert est.analytic == pytest.approx(10**6 * 2 * 10**6 * 301e-12 / 2.0, rel=1e-15)

    def test_offset_guard(self):
        # no bin of +-1000 ps lies 1 ns from a peak within 50 ps of zero: no sideband
        hist = CorrelationHistogram(50, 1000, np.ones(40, dtype=np.int64))
        for delay in (0, 25, -25):
            message = rf"^no histogram bin lies 1000 ps or more from the peak at {delay} ps$"
            with pytest.raises(ValueError, match=message):
                estimate_accidentals(hist, delay, 300, 1, 1, 1.0)
        # from a peak at the last bin, the 20 bins at or below -1 ps count: 20 * 301 / 1000
        assert estimate_accidentals(hist, 1000, 300, 1, 1, 1.0).count == pytest.approx(6.02, rel=1e-15)


class TestTallyBasis:
    def test_classifies_ports(self):
        # two TT pairs, one TR pair, one RT pair, plus an unmatched bob tag
        alice = make_tags([1000, 2000, 3000, 4000], [0, 0, 0, 1])
        bob = make_tags([1010, 2010, 3010, 4010, 9_000_000], [2, 2, 3, 2, 2])
        tally = tally_basis(alice, bob, window_ps=300, duration_s=2.0)
        assert tally.delay_ps == 25  # the centre of the peak bin, [0, 50) ps
        assert tally.counts.c_pp == 2
        assert tally.counts.c_pm == 1
        assert tally.counts.c_mp == 1
        assert tally.counts.c_mm == 0
        assert tally.counts.total == 4 and tally.duration_s == 2.0
        # the one record also holds the rate, the visibility (2 - 2) / 4 and its QBER
        assert (tally.coincidence_rate_cps, tally.visibility, tally.qber) == (2.0, 0.0, 0.5)

    def test_auto_delay_from_peak(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.integers(0, int(1e12), 5000))
        alice = make_tags(times, np.zeros(times.size, dtype=int))
        bob = make_tags(times + 2000, np.full(times.size, 2))
        tally = tally_basis(alice, bob, window_ps=300, duration_s=1.0)
        assert abs(tally.delay_ps - 2000) <= 50
        assert tally.counts.total == 5000

    def test_empty_streams_zero_report(self):
        empty = make_tags([], [])
        tally = tally_basis(empty, empty, window_ps=300, duration_s=1.0)
        assert tally.counts.total == 0
        assert tally.delay_ps == 0
        assert (tally.accidentals.count, tally.accidentals.sigma, tally.accidentals.analytic) == (0, 0, 0)
        assert tally.visibility is None and tally.qber is None

    def test_no_sideband_refused(self):
        # a +-1000 ps histogram leaves no bin 1 ns from a peak inside it
        alice, bob = arms([1000, 2000], [1010, 2010])
        message = "^no histogram bin lies 1000 ps or more from the peak at 25 ps$"
        with pytest.raises(ValueError, match=message):
            tally_basis(alice, bob, window_ps=300, duration_s=1.0, hist_range_ps=1000)


def _peak_delay_oracle(bins, bin_width, hist_range):
    """Rounded centre of the fullest bin; ties go to the smallest |delay|,
    then to the negative one; 0 for an empty histogram."""
    if not any(bins):
        return 0
    centers = [Fraction(2 * (-hist_range + bin_width * i) + bin_width, 2) for i in range(len(bins))]
    best = min(range(len(bins)), key=lambda i: (-bins[i], abs(centers[i]), centers[i]))
    return round(centers[best])


def _tally_oracle(alice, bob, window, hist_bin, hist_range):
    t_a, t_b = alice.times, bob.times
    bins = histogram_oracle(t_a, t_b, hist_bin, hist_range)
    delay = _peak_delay_oracle(bins.tolist(), hist_bin, hist_range)
    ports = [0, 0, 0, 0]
    for i, j in greedy_match_oracle(t_a, t_b, window, delay):
        ports[2 * (alice.codes[i] >> 1 & 1) + (bob.codes[j] >> 1 & 1)] += 1
    sidebands = sideband_oracle(bins.tolist(), hist_bin, hist_range, delay, ACCIDENTAL_GAP_PS)
    return bins, delay, ports, sidebands


def _assert_accidentals(est, sidebands, n_a, n_b, window):
    """``est`` scales the oracle's sidebands to the window's integer delays, with
    their Poisson error and the analytic count of a 1 s acquisition."""
    (total, covered), width = sidebands, window // 2 * 2 + 1
    assert est.count == pytest.approx(total * width / covered, rel=1e-12, abs=0)
    assert est.sigma == pytest.approx(math.sqrt(total) * width / covered, rel=1e-12, abs=0)
    assert est.analytic == pytest.approx(n_a * n_b * width * 1e-12, rel=1e-12, abs=0)


class TestTallyBasisOracle:
    """The whole tally path (histogram, peak delay, matching, port
    classification and the accidentals from the histogram) against the
    O(n^2) oracles."""

    def _random_tags(self, rng, n, span, base, channels):
        times = base + np.sort(rng.integers(0, span, n))
        return make_tags(times, rng.choice(channels, n))

    def _check(self, monkeypatch, alice, bob, *, window, hist_bin, hist_range):
        tally, hist = tally_and_histogram(
            monkeypatch,
            alice,
            bob,
            window_ps=window,
            duration_s=1.0,
            hist_bin_ps=hist_bin,
            hist_range_ps=hist_range,
        )
        bins, want_delay, ports, sidebands = _tally_oracle(alice, bob, window, hist_bin, hist_range)
        np.testing.assert_array_equal(hist.bins, bins)
        assert tally.delay_ps == want_delay
        counts = tally.counts
        assert [counts.c_pp, counts.c_pm, counts.c_mp, counts.c_mm] == ports
        _assert_accidentals(tally.accidentals, sidebands, len(alice), len(bob), window)

    @pytest.mark.parametrize("base", [0, 2**60 - 2**20])
    def test_random_streams(self, monkeypatch, base):
        rng = np.random.default_rng(21 if base else 20)
        for _ in range(60):
            # spans down to a few windows give dense, contested segments
            span = int(rng.integers(200, 200_000))
            window = int(rng.integers(1, 600))
            hist_bin = int(rng.integers(1, 100))
            # whole bins past the 1 ns the accidentals keep from the peak
            hist_range = hist_bin * (int(rng.integers(1, 40)) - (-ACCIDENTAL_GAP_PS // hist_bin))
            # half the cases double their window (up to 1,198 ps)
            window *= int(rng.choice([1, 2]))
            alice = self._random_tags(rng, int(rng.integers(0, 250)), span, base, [0, 1])
            bob = self._random_tags(rng, int(rng.integers(0, 250)), span, base, [2, 3])
            self._check(monkeypatch, alice, bob, window=window, hist_bin=hist_bin, hist_range=hist_range)

    def test_correlated_streams_with_contested_segments(self, monkeypatch):
        rng = np.random.default_rng(22)
        times = 2**55 + np.sort(rng.integers(0, 40_000, 300))
        alice = make_tags(times, rng.choice([0, 1], times.size))
        jittered = np.sort(times + 700 + rng.integers(-200, 201, times.size))
        bob = make_tags(jittered, rng.choice([2, 3], times.size))
        self._check(monkeypatch, alice, bob, window=300, hist_bin=50, hist_range=5000)

    def test_empty_streams(self, monkeypatch):
        rng = np.random.default_rng(23)
        some = self._random_tags(rng, 40, 10_000, 2**54, [0, 1])
        empty = make_tags([], [])
        for alice, bob in ((empty, empty), (some, empty), (empty, some)):
            self._check(monkeypatch, alice, bob, window=300, hist_bin=50, hist_range=5000)


class TestSharedSearch:
    """``tally_basis`` runs one search of A into B, a merge per block of A
    after two binary searches for the B tags the block spans; each of its two
    passes then searches B only for the window bounds of the few tags with
    more than one B tag in the span.  Each pass must still give the oracles'
    histogram and index arrays, whatever the block size, with no other search
    of A."""

    KINDS = ["empty", "dense", "ties", "near-2**60"]

    def _times(self, rng, kind, n, window):
        # from 2**13 ps, as partners at a delay down to -5,549 ps must not fall below 0
        if kind == "ties":
            return 2**13 + np.sort(rng.integers(0, 12, n)) * int(rng.integers(1, window + 2))
        span = window * int(rng.integers(1, 12)) if kind == "dense" else int(rng.integers(200, 40_000))
        base = 2**60 - 2**20 if kind == "near-2**60" else 0
        return base + 2**13 + np.sort(rng.integers(0, span, n))

    def _case(self, rng, kind, where):
        window = int(rng.integers(1, 600))
        hist_bin = int(rng.integers(1, 100))
        # whole bins past the 1 ns the accidentals keep from the peak
        hist_range = hist_bin * (int(rng.integers(1, 40)) - (-ACCIDENTAL_GAP_PS // hist_bin))
        delay = int(rng.integers(-hist_range, hist_range + 1)) if where == "inside" else None
        t_a = self._times(rng, kind, int(rng.integers(1, 120)), window)
        t_b = self._times(rng, kind, int(rng.integers(1, 120)), window)
        if delay is not None:
            # partners at an in-range delay, for the tally to find
            t_b = np.sort(np.concatenate([t_b, t_a + delay + rng.integers(-window, window + 1, t_a.size)]))
        if kind == "empty":
            t_a, t_b = [(t_a[:0], t_b), (t_a, t_b[:0]), (t_a[:0], t_b[:0])][int(rng.integers(0, 3))]
        alice = make_tags(t_a, rng.choice([0, 1], t_a.size))
        bob = make_tags(t_b, rng.choice([2, 3], t_b.size))
        # half the cases double their window (up to 1,198 ps)
        scale = int(rng.choice([1, 2]))
        return alice, bob, dict(
            window_ps=scale * window, duration_s=1.0, hist_bin_ps=hist_bin, hist_range_ps=hist_range
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7])
    def test_passes_match_the_oracles(self, monkeypatch, block, kind):
        rng = np.random.default_rng(100 * block + self.KINDS.index(kind))
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        match_passes, keys, searches = [], [], []
        count = coincidence.count_coincidences
        search = np.searchsorted

        class Recorded(coincidence._Search):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        def recorded(a, b, window_ps, delay_ps=0, **kwargs):
            pairs = count(a, b, window_ps, delay_ps, **kwargs)
            match_passes.append((delay_ps, pairs))
            return pairs

        def counted(b, v, *args, **kwargs):
            keys.append((b, np.size(v)))
            return search(b, v, *args, **kwargs)

        monkeypatch.setattr(coincidence, "count_coincidences", recorded)
        monkeypatch.setattr(coincidence.np, "searchsorted", counted)
        monkeypatch.setattr(coincidence, "_Search", Recorded)
        for where in ("none", "inside") * 3:
            alice, bob, kw = self._case(rng, kind, where)
            match_passes.clear()
            searches.clear()
            keys.clear()
            tally, hist = tally_and_histogram(monkeypatch, alice, bob, **kw)
            # one search: into B, one call of two keys per block of A, and in each of
            # the two passes one call per block with tags with more than one B tag
            # in the span, two keys per such tag
            assert len(searches) == 1
            found, into_b = searches[0], [n for b, n in keys if b is searches[0].b]
            multi = [m.size for m in found.multi]
            assert len(into_b) == len(found.bounds) + 2 * np.count_nonzero(multi)
            assert sum(into_b) == 2 * len(found.bounds) + 2 * 2 * sum(multi)

            t_a, t_b = alice.times, bob.times
            bins, delay, ports, sidebands = _tally_oracle(
                alice, bob, kw["window_ps"], kw["hist_bin_ps"], kw["hist_range_ps"]
            )
            np.testing.assert_array_equal(hist.bins, bins)
            assert tally.delay_ps == delay
            counts = tally.counts
            assert [counts.c_pp, counts.c_pm, counts.c_mp, counts.c_mm] == ports
            _assert_accidentals(tally.accidentals, sidebands, len(alice), len(bob), kw["window_ps"])
            assert [d for d, _ in match_passes] == [delay]
            for d, pairs in match_passes:
                assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
                assert pairs.tolist() == [list(p) for p in greedy_match_oracle(t_a, t_b, kw["window_ps"], d)]

    def test_a_burst_is_galloped_over(self, monkeypatch):
        # 5,000 B tags at one instant within range of one A tag: a walk one
        # tag at a time would take 5,000 rounds for each window across them,
        # and a binary search takes none
        rng = np.random.default_rng(7)
        t_a = np.sort(rng.integers(0, 10**9, 300))
        t_b = np.sort(np.concatenate([rng.integers(0, 10**9, 300), np.full(5000, t_a[100] + 10)]))
        alice, bob = make_tags(t_a, 0), make_tags(t_b, 2)
        rounds = [0]

        class CountedTakes(np.ndarray):
            def take(self, *args, **kwargs):
                rounds[0] += 1
                return super().take(*args, **kwargs)

        # each gather of B tags is one ``take`` on the search's B times, here
        # a view that counts them
        counted = Stream(bob.times.view(CountedTakes), bob.codes, bob.channel_id)
        tally, hist = tally_and_histogram(monkeypatch, alice, counted, window_ps=300, duration_s=1.0)
        assert 0 < rounds[0] < 1000
        bins, delay, ports, sidebands = _tally_oracle(alice, bob, 300, 50, 5000)
        np.testing.assert_array_equal(hist.bins, bins)
        assert (tally.delay_ps, tally.counts.c_pp) == (delay, ports[0])
        _assert_accidentals(tally.accidentals, sidebands, len(alice), len(bob), 300)

    def test_two_b_gathers_per_a_tag(self, monkeypatch):
        # the search gathers two B tags per A tag, the first in its span and
        # the next; the passes gather only in the histogram's list of the few
        # tags with more than one B tag in the span
        rng = np.random.default_rng(9)
        t_a = np.sort(rng.integers(0, 10**11, 20_000))
        partners = t_a + rng.integers(-100, 101, t_a.size)
        t_b = np.sort(np.concatenate([partners, rng.integers(0, 10**11, 10_000)]))
        alice, bob = make_tags(t_a, rng.choice([0, 1], t_a.size)), make_tags(t_b, 2)
        gathered = [0]

        class CountedTakes(np.ndarray):
            def take(self, indices, *args, **kwargs):
                gathered[0] += np.size(indices)
                return super().take(indices, *args, **kwargs)

        counted = Stream(bob.times.view(CountedTakes), bob.codes, bob.channel_id)
        kw = dict(window_ps=300, duration_s=1.0)
        tally, hist = tally_and_histogram(monkeypatch, alice, counted, **kw)
        # the B tags in the tally's span of each tag with more than one there
        base, top = -5000 - 150, 5000 + 150 + 1
        span = np.searchsorted(t_b, t_a + top) - np.searchsorted(t_b, t_a + base)
        listed = int(span[span > 1].sum())
        assert 0 < listed < t_a.size // 4
        assert gathered[0] <= 2 * t_a.size + listed
        plain, plain_hist = tally_and_histogram(monkeypatch, alice, bob, **kw)
        np.testing.assert_array_equal(hist.bins, plain_hist.bins)
        assert tally == plain

    def test_each_stream_is_checked_once(self, monkeypatch):
        # each stream is checked where it is made, and the passes take the
        # times the shared search holds without checking them again
        rng = np.random.default_rng(5)
        checks = []
        post_init = Stream.__post_init__

        def checked(stream):
            checks.append(stream.channel_id)
            post_init(stream)

        monkeypatch.setattr(Stream, "__post_init__", checked)
        alice = make_tags(np.sort(rng.integers(0, 10**7, 500)), 0)
        bob = make_tags(np.sort(rng.integers(0, 10**7, 500)), 2)
        tally_basis(alice, bob, window_ps=300, duration_s=1.0)
        assert checks == [0, 1]


class TestOneWalkBounds:
    """A pass takes each A tag's window bounds from the delay to the first B
    tag in its search's span, and searches B only for the tags with more than
    one B tag there.  B tags on and just past every window edge and the span's
    own edges, several per A tag, must give the oracles' histogram, index
    arrays and accidentals, in the tally and in each pass called alone, also
    in a window ``offset`` off the peak that a pass alone counts."""

    WINDOW, HW, RANGE = 300, 150, 1000
    # (bin width, B tag of the peak, delay): a peak inside the range, and peaks
    # in its first and last 1 ps bins, whose centres round to -+RANGE, so that
    # the windows reach the tally's span edges
    PEAKS = [(50, 225, 225), (1, 999, 1000), (1, -1000, -1000)]

    def _streams(self, rng, peak, delay, offset):
        d, hw, r = delay, self.HW, self.RANGE
        edges = [d - hw, d + hw, d - hw - 1, d + hw + 1, -r, r, -r - 1, r + 1]
        edges += [d + offset - hw, d + offset + hw, d + offset - hw - 1, d + offset + hw + 1]
        # the tally's span is [-r - hw, r + hw]
        edges += [d + offset, -r - hw, r + hw, -r - hw - 1, r + hw + 1]
        a, b = [], []
        for k in range(80):
            t = 10**6 * (k + 1)
            # a few A tags 100 ps apart, whose spans and windows overlap
            near = t + 100 * np.arange(int(rng.integers(1, 4)))
            a += near.tolist()
            b += [int(x + o) for x in near for o in rng.choice(edges, int(rng.integers(0, 5)))]
        # a peak that outweighs every edge, and A tags past the last B tag
        at = 10**8 + 10**6 * np.arange(60)
        a += at.tolist() + (10**9 + 1000 * np.arange(5)).tolist()
        b += (at + peak).tolist()
        return np.sort(np.array(a, dtype=np.int64)), np.sort(np.array(b, dtype=np.int64))

    @pytest.mark.parametrize("offset", [3000, -4500])
    @pytest.mark.parametrize("bin_width, peak, delay", PEAKS, ids=["inside", "last-bin", "first-bin"])
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 16])
    def test_edges_match_the_oracles(self, monkeypatch, block, bin_width, peak, delay, offset):
        rng = np.random.default_rng([block, bin_width, abs(peak), abs(offset), offset < 0])
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        t_a, t_b = self._streams(rng, peak, delay, offset)
        # A tags past the last B tag, and many with more than one B tag in the tally's span
        base, top = -self.RANGE - self.HW, self.RANGE + self.HW + 1
        span = np.searchsorted(t_b, t_a + top) - np.searchsorted(t_b, t_a + base)
        assert t_a[-1] > t_b[-1] and np.count_nonzero(span > 1) > 50
        alice, bob = make_tags(t_a, 0), make_tags(t_b, 2)
        # the search lists exactly those tags, per block
        search = coincidence._Search(alice, bob, base, top, self.HW)
        listed = [m + s for (s, _), m in zip(search.bounds, search.multi)]
        assert np.concatenate(listed).tolist() == np.flatnonzero(span > 1).tolist()
        passes = []
        count = coincidence.count_coincidences

        def recorded(a, b, window_ps, delay_ps=0, **kwargs):
            passes.append(count(a, b, window_ps, delay_ps, **kwargs))
            return passes[-1]

        monkeypatch.setattr(coincidence, "count_coincidences", recorded)
        tally, hist = tally_and_histogram(
            monkeypatch, alice, bob, window_ps=self.WINDOW, duration_s=1.0,
            hist_bin_ps=bin_width, hist_range_ps=self.RANGE,
        )
        bins = histogram_oracle(t_a, t_b, bin_width, self.RANGE)
        assert tally.delay_ps == delay
        np.testing.assert_array_equal(hist.bins, bins)
        want = [greedy_match_oracle(t_a, t_b, self.WINDOW, delay + o) for o in (0, offset)]
        assert [p.tolist() for p in passes] == [[list(p) for p in want[0]]]
        assert tally.counts.total == len(want[0])
        sidebands = sideband_oracle(bins.tolist(), bin_width, self.RANGE, delay, ACCIDENTAL_GAP_PS)
        assert sidebands[0] > 0
        _assert_accidentals(tally.accidentals, sidebands, len(alice), len(bob), self.WINDOW)

        # each pass alone, over a span of its own window only
        np.testing.assert_array_equal(cross_correlation(alice, bob, bin_width, self.RANGE).bins, bins)
        for at, pairs in zip((delay, delay + offset), want):
            assert count(alice, bob, self.WINDOW, at).tolist() == [list(p) for p in pairs]
        alone = estimate_accidentals(
            CorrelationHistogram(bin_width, self.RANGE, bins), delay, self.WINDOW, len(alice), len(bob), 1.0
        )
        assert alone == tally.accidentals

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_empty_a_or_b(self, monkeypatch, block):
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        some, none = np.arange(0, 10**5, 97, dtype=np.int64), np.empty(0, dtype=np.int64)
        for t_a, t_b in ((some, none), (none, some), (none, none)):
            alice, bob = arms(t_a, t_b)
            tally, hist = tally_and_histogram(monkeypatch, alice, bob, window_ps=300, duration_s=1.0)
            assert not hist.bins.any() and hist.bins.size == 200
            assert (tally.delay_ps, tally.counts.total, tally.accidentals.count) == (0, 0, 0)
            assert not cross_correlation(alice, bob, 50, 5000).bins.any()
            assert count_coincidences(alice, bob, 300, 25).shape == (0, 2)
            assert estimate_accidentals(hist, 0, 300, t_a.size, t_b.size, 1.0).analytic == 0


class TestDelayStore:
    """The search keeps each A tag's delay to its first B tag in the span, less
    ``base``, as int16 below ``2**15 - 1`` ps of span, else int32 below
    ``2**31 - 1`` ps, else int64.  At and around each width edge, with B tags
    on the first and last ps of every span and one ps past each, the tally
    and each pass called alone must give the oracles' bins, index arrays and
    accidentals, also with windows more than 2**40 ps from zero and in a
    window ``offset`` off the peak that a pass alone counts."""

    # (bin width, range, offset, bin of the peak): the tally's span is
    # 2 * (range + 150) + 1 ps wide, the histogram's alone 2 * range + 1
    CASES = [
        (8, 16_232, 3000, 300),  # tally 2**15 - 3
        (3, 16_233, -3000, 100),  # tally 2**15 - 1
        (2, 16_234, 3000, 500),  # tally 2**15 + 1
        (127, 16_383, 3000, 130),  # histogram alone 2**15 - 1
        (128, 16_384, -3000, 200),  # histogram alone 2**15 + 1
        (2**23, 2**30, 3000, 128),  # histogram alone 2**31 + 1
        (2**34, 2**41, -3000, 192),  # a peak at 2**40 + 2**33
        (2**34, 2**41, 3000, 63),  # and at -2**40 - 2**33
    ]
    WINDOW, HW = 300, 150

    @staticmethod
    def _dtype(width):
        return np.int16 if width < 2**15 - 1 else np.int32 if width < 2**31 - 1 else np.int64

    @pytest.mark.parametrize("bin_width, reach, offset, peak_bin", CASES)
    def test_edges_match_the_oracles(self, monkeypatch, bin_width, reach, offset, peak_bin):
        hw = self.HW
        center = Fraction(2 * (bin_width * peak_bin - reach) + bin_width, 2)
        delay = round(center)
        base, top = -reach - hw, reach + hw + 1
        spans = [(base, top), (-reach, reach + 1)]
        spans += [(d - hw, d + hw + 1) for d in (delay, delay + offset)]
        step = 4 * (top - base)
        # an A tag for each edge of each span with one B tag there, one per span
        # with B tags on all four, and the peak's; then two A tags past every B tag
        offsets = [[x] for lo, hi in spans for x in (lo, hi - 1, lo - 1, hi)]
        offsets += [[lo, hi - 1, lo - 1, hi] for lo, hi in spans] + [[int(center)]] * 40
        t_a = step * np.arange(1, len(offsets) + 3)
        t_b = np.sort(np.concatenate([t + np.array(o) for t, o in zip(t_a, offsets)]))
        rng = np.random.default_rng(abs(offset))
        alice = make_tags(t_a, rng.choice([0, 1], t_a.size))
        bob = make_tags(t_b, rng.choice([2, 3], t_b.size))
        search = coincidence._Search(alice, bob, base, top, hw)
        assert search.delay.dtype == self._dtype(top - base)
        assert coincidence._Search(alice, bob, -reach, reach + 1, 0).delay.dtype == self._dtype(2 * reach + 1)

        passes = []
        count = coincidence.count_coincidences

        def recorded(a, b, window_ps, delay_ps=0, **kwargs):
            passes.append(count(a, b, window_ps, delay_ps, **kwargs))
            return passes[-1]

        monkeypatch.setattr(coincidence, "count_coincidences", recorded)
        tally, hist = tally_and_histogram(
            monkeypatch, alice, bob, window_ps=self.WINDOW, duration_s=1.0,
            hist_bin_ps=bin_width, hist_range_ps=reach,
        )
        bins, want_delay, ports, sidebands = _tally_oracle(alice, bob, self.WINDOW, bin_width, reach)
        assert tally.delay_ps == want_delay == delay
        np.testing.assert_array_equal(hist.bins, bins)
        counts = tally.counts
        assert [counts.c_pp, counts.c_pm, counts.c_mp, counts.c_mm] == ports
        assert sidebands[0] > 0
        _assert_accidentals(tally.accidentals, sidebands, len(alice), len(bob), self.WINDOW)
        want = [greedy_match_oracle(t_a, t_b, self.WINDOW, delay + o) for o in (0, offset)]
        assert [p.tolist() for p in passes] == [[list(p) for p in want[0]]]

        # each pass alone, over a span of its own window only
        np.testing.assert_array_equal(cross_correlation(alice, bob, bin_width, reach).bins, bins)
        for at, pairs in zip((delay, delay + offset), want):
            assert count(alice, bob, self.WINDOW, at).tolist() == [list(p) for p in pairs]
        alone = estimate_accidentals(
            CorrelationHistogram(bin_width, reach, bins), delay, self.WINDOW, len(alice), len(bob), 1.0
        )
        assert alone == tally.accidentals


class TestCallBudget:
    """Each pass makes a fixed number of numpy calls per block of A, and two
    threads analyzing at once hand the GIL back and forth at every call, so
    the blocks stay few and large: a 500k-tag acquisition takes 4 blocks per
    pass.  Besides the search's one per block, a pass searches B only in a
    block with a tag that has more than one B tag in the search's span, once
    for all of them."""

    def test_a_500k_tag_acquisition(self, monkeypatch):
        rng = np.random.default_rng(12)
        t_a = np.sort(rng.integers(0, 60 * 10**12, 250_000))
        t_b = np.sort(t_a + rng.integers(-100, 101, t_a.size))
        alice = make_tags(t_a, rng.choice([0, 1], t_a.size))
        bob = make_tags(t_b, rng.choice([2, 3], t_b.size))
        blocks, fixups, searches = [], [0], [0]
        windows, search = coincidence._Search.windows, np.searchsorted

        def counted_windows(self, *args):
            blocks.append(len(self.bounds))
            fixups[0] += sum(m.size > 0 for m in self.multi)
            return windows(self, *args)

        def counted_search(b, *args, **kwargs):
            searches[0] += b is bob.times
            return search(b, *args, **kwargs)

        monkeypatch.setattr(coincidence._Search, "windows", counted_windows)
        monkeypatch.setattr(coincidence.np, "searchsorted", counted_search)
        tally = tally_basis(alice, bob, window_ps=300, duration_s=60.0)
        # the histogram and coincidence passes
        assert blocks == [4, 4]
        # 8 of the 250,000 A tags have two B tags in the span, in 3 of the 4 blocks
        assert fixups[0] == 2 * 3
        # the search's one per block, and one per pass in each of those blocks
        assert searches[0] - blocks[0] == fixups[0] == 6
        assert tally.counts.total > 0.99 * t_a.size

"""Unit tests for the coincidence engine against brute-force oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mcfqkd.coincidence import (
    CorrelationHistogram,
    NoPeakError,
    UnsortedStreamError,
    count_coincidences,
    cross_correlation,
    estimate_accidentals,
    find_peak_delay,
    tally_basis,
)
from mcfqkd import coincidence
from mcfqkd.coincidence import _as_times
from mcfqkd.photonsim import Stream
from oracles import greedy_match_oracle, histogram_oracle


def make_tags(times, channels):
    """The stream of unflagged tags at ``times`` on ``channels``, Alice's 0/1 or Bob's 2/3."""
    times = np.array(times, dtype=np.int64)
    channels = np.broadcast_to(np.asarray(channels, dtype=np.uint8), times.shape)
    return Stream(times, 2 * channels, int(channels.max(initial=0)) >> 1)


class TestCrossCorrelation:
    def test_shifted_copy_peaks_at_shift(self):
        rng = np.random.default_rng(0)
        a = np.sort(rng.integers(0, 10_000_000, 5000))
        hist = cross_correlation(a, a + 1000, bin_width_ps=50, range_ps=5000)
        assert find_peak_delay(hist) == pytest.approx(1025.0)
        peak_bin = int(np.argmax(hist.bins))
        assert hist.bins[peak_bin] >= 5000

    def test_independent_streams_flat(self):
        rng = np.random.default_rng(1)
        duration_ps = int(10e12)
        a = np.sort(rng.integers(0, duration_ps, 40_000))
        b = np.sort(rng.integers(0, duration_ps, 40_000))
        hist = cross_correlation(a, b, bin_width_ps=1000, range_ps=100_000)
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
            hist = cross_correlation(a, b, bw, rng_ps)
            np.testing.assert_array_equal(hist.bins, histogram_oracle(a, b, bw, rng_ps))

    def test_total_equals_pairs_in_range(self):
        a = np.array([0, 100, 200])
        b = np.array([50, 150, 10_000])
        hist = cross_correlation(a, b, bin_width_ps=50, range_ps=500)
        assert hist.bins.sum() == 6  # all combinations of the first two b tags

    def test_rejects_unsorted(self):
        with pytest.raises(UnsortedStreamError):
            cross_correlation([10, 5], [1, 2], 10, 100)

    def test_rejects_bad_binning(self):
        with pytest.raises(ValueError):
            cross_correlation([1], [2], 0, 100)
        with pytest.raises(ValueError):
            cross_correlation([1], [2], 30, 100)  # 100 not a multiple of 30
        with pytest.raises(ValueError):
            cross_correlation([1], [2], 200, 100)


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
        pairs = count_coincidences([100, 500, 900], [150, 2000], window_ps=300)
        assert pairs.tolist() == [[0, 0]]

    def test_identical_streams_all_match(self):
        a = np.arange(0, 100_000, 1000)
        pairs = count_coincidences(a, a, window_ps=10)
        assert len(pairs) == len(a)
        np.testing.assert_array_equal(pairs[:, 0], pairs[:, 1])

    def test_empty_stream(self):
        assert len(count_coincidences([], [1, 2, 3], 100)) == 0
        assert len(count_coincidences([1, 2, 3], [], 100)) == 0

    def test_rejects_unsorted(self):
        with pytest.raises(UnsortedStreamError):
            count_coincidences([5, 1], [1], 100)

    def test_unsorted_message_names_stream_and_index(self):
        with pytest.raises(UnsortedStreamError, match=r"^stream_b is not sorted by time at index 2$"):
            count_coincidences([1, 2], [1, 5, 3, 2], 100)
        with pytest.raises(UnsortedStreamError, match=r"^stream_a is not sorted by time at index 1$"):
            cross_correlation([10, 5], [1, 2], 10, 100)
        # the streams ``tally_basis`` takes are checked where they are made
        with pytest.raises(UnsortedStreamError, match=r"^times are not sorted at index 2$"):
            make_tags([0, 300, 200], [0, 0, 0])

    def test_checked_stream_views_are_checked_again(self):
        alice = make_tags([0, 100, 200], [0, 0, 0])
        checked = _as_times(alice.times, "stream_a")
        assert _as_times(checked, "stream_a") is checked
        with pytest.raises(UnsortedStreamError, match="at index 1"):
            count_coincidences(checked[::-1], checked, 100)

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
            got = count_coincidences(a, b, window, delay_ps=delay).tolist()
            expected = [list(p) for p in greedy_match_oracle(a, b, window, delay)]
            assert got == expected

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        a = np.sort(rng.integers(0, 1_000_000, 500))
        b = np.sort(rng.integers(0, 1_000_000, 500))
        base = count_coincidences(a, b, 400)
        shifted = count_coincidences(a + 10**9, b + 10**9, 400)
        np.testing.assert_array_equal(base, shifted)

    def test_count_bounded_by_smaller_stream(self):
        rng = np.random.default_rng(5)
        a = np.sort(rng.integers(0, 10_000, 50))
        b = np.sort(rng.integers(0, 10_000, 400))
        pairs = count_coincidences(a, b, 10_000)
        assert len(pairs) <= 50

    def test_exact_beyond_double_precision(self):
        # timestamps beyond 2**53 must still match exactly
        base = 2**60
        a = np.array([base, base + 1000], dtype=np.int64)
        b = np.array([base + 149, base + 1151], dtype=np.int64)
        pairs = count_coincidences(a, b, 300)
        assert pairs.tolist() == [[0, 0]]  # 151 > 150 excluded, 149 included

    def test_a_block_spanning_2_62_ps(self):
        # the search merges each block's keys with B shifted left by one bit
        # from the block's first key; a block spanning 2**62 ps or more, where
        # the shift would overflow, takes one binary search per key instead
        a = np.array([0, 10, 2**62 + 10**6, 2**62 + 2 * 10**6])
        b = np.array([20, 300, 2**62 + 10**6 + 25, 2**62 + 2 * 10**6 - 40])
        hist = cross_correlation(a, b, 50, 500)
        np.testing.assert_array_equal(hist.bins, histogram_oracle(a, b, 50, 500))
        assert hist.bins.sum() == 6
        # the greedy oracle's 2*|dt| overflows here: the matches worked by hand
        assert count_coincidences(a, b, 300).tolist() == [[0, 0], [2, 2], [3, 3]]


class TestBlockedPasses:
    """The histogram and the matcher walk A in blocks of ``_BLOCK`` tags.
    With blocks of a few tags they must still agree with the oracles and
    give the very bytes of a single whole-stream block."""

    def _whole_and_blocked(self, monkeypatch, block, a, b, window, delay, bw, hist_range):
        with monkeypatch.context() as m:
            m.setattr(coincidence, "_BLOCK", 1 << 40)
            whole = count_coincidences(a, b, window, delay_ps=delay)
            whole_bins = cross_correlation(a, b, bw, hist_range).bins
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        pairs = count_coincidences(a, b, window, delay_ps=delay)
        bins = cross_correlation(a, b, bw, hist_range).bins
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
        for block in (1, 5, 64):
            self._whole_and_blocked(monkeypatch, block, a, b, 600, 37, 50, 2000)


class TestEstimateAccidentals:
    def test_poisson_streams_match_analytic(self):
        rng = np.random.default_rng(6)
        duration_s = 60.0
        rate = 100_000
        n = rng.poisson(rate * duration_s)
        a = np.sort(rng.integers(0, int(duration_s * 1e12), n))
        n = rng.poisson(rate * duration_s)
        b = np.sort(rng.integers(0, int(duration_s * 1e12), n))
        est = estimate_accidentals(a, b, window_ps=300, offset_ps=100_000, duration_s=duration_s)
        assert est.analytic == pytest.approx(180.0, rel=0.05)
        sigma = np.sqrt(est.analytic)
        assert abs(est.count - est.analytic) < 3 * sigma + 3

    def test_correlated_peak_excluded(self):
        rng = np.random.default_rng(7)
        a = np.sort(rng.integers(0, int(1e12), 20_000))
        b = a + rng.integers(-20, 20, a.size)  # tightly correlated
        b.sort()
        est = estimate_accidentals(a, b, window_ps=300, offset_ps=6000, duration_s=1.0)
        # true coincidences (20k) never appear at the offset window
        assert est.count < 500

    def test_offset_guard(self):
        with pytest.raises(ValueError):
            estimate_accidentals([1], [2], window_ps=300, offset_ps=2000, duration_s=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call, name",
    [
        (
            lambda v: tally_basis(
                make_tags([], []), make_tags([], []), window_ps=300, duration_s=1.0,
                accidental_offset_ps=v,
            ),
            "accidental_offset_ps",
        ),
        (
            lambda v: estimate_accidentals([1], [2], window_ps=300, offset_ps=v, duration_s=1.0),
            "offset_ps",
        ),
    ],
    ids=["tally_basis", "estimate_accidentals"],
)
def test_non_finite_offset_rejected_by_name(call, name, value):
    # named up front, not left to an integer conversion that names nothing
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
        call(value)


class TestTallyBasis:
    def test_classifies_ports(self):
        # two TT pairs, one TR pair, one RT pair, plus an unmatched bob tag
        alice = make_tags([1000, 2000, 3000, 4000], [0, 0, 0, 1])
        bob = make_tags([1010, 2010, 3010, 4010, 9_000_000], [2, 2, 3, 2, 2])
        tally = tally_basis(alice, bob, window_ps=300, duration_s=1.0, accidental_offset_ps=6000)
        assert tally.delay_ps == 25  # the centre of the peak bin, [0, 50) ps
        assert tally.counts.c_pp == 2
        assert tally.counts.c_pm == 1
        assert tally.counts.c_mp == 1
        assert tally.counts.c_mm == 0
        assert tally.counts.total == 4 and tally.duration_s == 1.0

    def test_auto_delay_from_peak(self):
        rng = np.random.default_rng(8)
        times = np.sort(rng.integers(0, int(1e12), 5000))
        alice = make_tags(times, np.zeros(times.size, dtype=int))
        bob = make_tags(times + 2000, np.full(times.size, 2))
        tally = tally_basis(alice, bob, window_ps=300, duration_s=1.0, accidental_offset_ps=6000)
        assert abs(tally.delay_ps - 2000) <= 50
        assert tally.counts.total == 5000

    def test_empty_streams_zero_report(self):
        empty = make_tags([], [])
        tally = tally_basis(empty, empty, window_ps=300, duration_s=1.0, accidental_offset_ps=6000)
        assert tally.counts.total == 0
        assert tally.delay_ps == 0
        assert tally.accidentals.count == 0


def _peak_delay_oracle(bins, bin_width, hist_range):
    """Rounded centre of the fullest bin; ties go to the smallest |delay|,
    then to the negative one; 0 for an empty histogram."""
    if not any(bins):
        return 0
    centers = [Fraction(2 * (-hist_range + bin_width * i) + bin_width, 2) for i in range(len(bins))]
    best = min(range(len(bins)), key=lambda i: (-bins[i], abs(centers[i]), centers[i]))
    return round(centers[best])


def _tally_oracle(alice, bob, window, hist_bin, hist_range, offset):
    t_a, t_b = alice.times, bob.times
    bins = histogram_oracle(t_a, t_b, hist_bin, hist_range)
    delay = _peak_delay_oracle(bins.tolist(), hist_bin, hist_range)
    ports = [0, 0, 0, 0]
    for i, j in greedy_match_oracle(t_a, t_b, window, delay):
        ports[2 * (alice.codes[i] >> 1 & 1) + (bob.codes[j] >> 1 & 1)] += 1
    accidentals = len(greedy_match_oracle(t_a, t_b, window, delay + offset))
    return bins, delay, ports, accidentals


class TestTallyBasisOracle:
    """The whole tally path (histogram, peak delay, matching, accidental
    pass and port classification) against the O(n^2) oracles."""

    def _random_tags(self, rng, n, span, base, channels):
        times = base + np.sort(rng.integers(0, span, n))
        return make_tags(times, rng.choice(channels, n))

    def _check(self, alice, bob, *, window, hist_bin, hist_range, offset):
        tally = tally_basis(
            alice,
            bob,
            window_ps=window,
            duration_s=1.0,
            hist_bin_ps=hist_bin,
            hist_range_ps=hist_range,
            accidental_offset_ps=offset,
        )
        bins, want_delay, ports, accidentals = _tally_oracle(
            alice, bob, window, hist_bin, hist_range, offset
        )
        np.testing.assert_array_equal(tally.histogram.bins, bins)
        assert tally.delay_ps == want_delay
        counts = tally.counts
        assert [counts.c_pp, counts.c_pm, counts.c_mp, counts.c_mm] == ports
        assert tally.accidentals.count == accidentals

    @pytest.mark.parametrize("base", [0, 2**60])
    def test_random_streams(self, base):
        rng = np.random.default_rng(21 if base else 20)
        for _ in range(60):
            # spans down to a few windows give dense, contested segments
            span = int(rng.integers(200, 200_000))
            window = int(rng.integers(1, 600))
            hist_bin = int(rng.integers(1, 100))
            hist_range = hist_bin * int(rng.integers(1, 40))
            if rng.random() < 0.5:
                # an unused draw that keeps the generator, and so every case, as it was
                rng.integers(-3 * hist_range, 3 * hist_range + 1)
            offset = int(rng.choice([-1, 1])) * 10 * window * int(rng.integers(1, 4))
            # half the cases double their window (up to 1,198 ps) and its offset
            scale = int(rng.choice([1, 2]))
            window, offset = scale * window, scale * offset
            alice = self._random_tags(rng, int(rng.integers(0, 250)), span, base, [0, 1])
            bob = self._random_tags(rng, int(rng.integers(0, 250)), span, base, [2, 3])
            self._check(
                alice,
                bob,
                window=window,
                hist_bin=hist_bin,
                hist_range=hist_range,
                offset=offset,
            )

    def test_correlated_streams_with_contested_segments(self):
        rng = np.random.default_rng(22)
        times = 2**55 + np.sort(rng.integers(0, 40_000, 300))
        alice = make_tags(times, rng.choice([0, 1], times.size))
        jittered = np.sort(times + 700 + rng.integers(-200, 201, times.size))
        bob = make_tags(jittered, rng.choice([2, 3], times.size))
        self._check(alice, bob, window=300, hist_bin=50, hist_range=5000, offset=3000)

    def test_empty_streams(self):
        rng = np.random.default_rng(23)
        some = self._random_tags(rng, 40, 10_000, 2**54, [0, 1])
        empty = make_tags([], [])
        for alice, bob in ((empty, empty), (some, empty), (empty, some)):
            self._check(alice, bob, window=300, hist_bin=50, hist_range=5000, offset=3000)


class TestSharedSearch:
    """``tally_basis`` runs one search of A into B, a merge per block of A
    after two binary searches for the B tags the block spans, and walks from
    it to every other window bound.  Each pass must still give the oracles'
    index arrays, whatever the block size, with no other search of A."""

    KINDS = ["empty", "dense", "ties", "near-2**60"]

    def _times(self, rng, kind, n, window):
        if kind == "ties":
            return np.sort(rng.integers(0, 12, n)) * int(rng.integers(1, window + 2))
        span = window * int(rng.integers(1, 12)) if kind == "dense" else int(rng.integers(200, 40_000))
        return (2**60 if kind == "near-2**60" else 0) + np.sort(rng.integers(0, span, n))

    def _case(self, rng, kind, where):
        window = int(rng.integers(1, 600))
        hist_bin = int(rng.integers(1, 100))
        hist_range = hist_bin * int(rng.integers(1, 40))
        offset = int(rng.choice([-1, 1])) * 10 * window * int(rng.integers(1, 4))
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
        # half the cases double their window (up to 1,198 ps) and its offset
        scale = int(rng.choice([1, 2]))
        return alice, bob, dict(
            window_ps=scale * window,
            duration_s=1.0,
            hist_bin_ps=hist_bin,
            hist_range_ps=hist_range,
            accidental_offset_ps=scale * offset,
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7])
    def test_passes_match_the_oracles(self, monkeypatch, block, kind):
        rng = np.random.default_rng(100 * block + self.KINDS.index(kind))
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        match_passes, keys = [], [0]
        count = coincidence.count_coincidences
        search = np.searchsorted

        def recorded(a, b, window_ps, delay_ps=0, **kwargs):
            pairs = count(a, b, window_ps, delay_ps, **kwargs)
            match_passes.append((delay_ps, pairs))
            return pairs

        def counted(b, v, *args, **kwargs):
            keys[0] += np.size(v)
            return search(b, v, *args, **kwargs)

        monkeypatch.setattr(coincidence, "count_coincidences", recorded)
        monkeypatch.setattr(coincidence.np, "searchsorted", counted)
        for where in ("none", "inside") * 3:
            alice, bob, kw = self._case(rng, kind, where)
            match_passes.clear()
            keys[0] = 0
            tally = tally_basis(alice, bob, **kw)
            assert keys[0] == 2 * -(-len(alice) // block)  # two keys per block of A

            t_a, t_b = alice.times, bob.times
            bins, delay, ports, accidentals = _tally_oracle(
                alice, bob, kw["window_ps"], kw["hist_bin_ps"], kw["hist_range_ps"],
                kw["accidental_offset_ps"],
            )
            np.testing.assert_array_equal(tally.histogram.bins, bins)
            assert tally.delay_ps == delay
            counts = tally.counts
            assert [counts.c_pp, counts.c_pm, counts.c_mp, counts.c_mm] == ports
            assert tally.accidentals.count == accidentals
            assert [d for d, _ in match_passes] == [delay, delay + kw["accidental_offset_ps"]]
            for d, pairs in match_passes:
                assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
                assert pairs.tolist() == [list(p) for p in greedy_match_oracle(t_a, t_b, kw["window_ps"], d)]

    def test_a_burst_is_galloped_over(self):
        # 5,000 B tags at one instant within range of one A tag: a walk one
        # tag at a time would take 5,000 rounds for each window across them
        rng = np.random.default_rng(7)
        t_a = np.sort(rng.integers(0, 10**9, 300))
        t_b = np.sort(np.concatenate([rng.integers(0, 10**9, 300), np.full(5000, t_a[100] + 10)]))
        alice, bob = make_tags(t_a, 0), make_tags(t_b, 2)
        rounds = [0]

        class CountedTakes(np.ndarray):
            def take(self, *args, **kwargs):
                rounds[0] += 1
                return super().take(*args, **kwargs)

        # every round of a walk looks up B tags with one ``take`` on the
        # search's B times, here a view that counts them
        counted = Stream(bob.times.view(CountedTakes), bob.codes, bob.channel_id)
        tally = tally_basis(alice, counted, window_ps=300, duration_s=1.0, accidental_offset_ps=6000)
        assert 0 < rounds[0] < 1000
        bins, delay, ports, accidentals = _tally_oracle(alice, bob, 300, 50, 5000, 6000)
        np.testing.assert_array_equal(tally.histogram.bins, bins)
        assert (tally.delay_ps, tally.counts.c_pp, tally.accidentals.count) == (delay, ports[0], accidentals)

    def test_each_stream_is_checked_once(self, monkeypatch):
        # each stream is checked where it is made, and the passes take the
        # times the shared search holds without checking them again
        rng = np.random.default_rng(5)
        checks = []
        post_init = Stream.__post_init__

        def checked(stream):
            checks.append(stream.channel_id)
            post_init(stream)

        def as_times(stream, name):
            checks.append(name)
            return _as_times(stream, name)

        monkeypatch.setattr(Stream, "__post_init__", checked)
        monkeypatch.setattr(coincidence, "_as_times", as_times)
        alice = make_tags(np.sort(rng.integers(0, 10**7, 500)), 0)
        bob = make_tags(np.sort(rng.integers(0, 10**7, 500)), 2)
        tally_basis(alice, bob, window_ps=300, duration_s=1.0, accidental_offset_ps=6000)
        assert checks == [0, 1]


class TestOneWalkBounds:
    """A pass takes each A tag's window bounds from the delay to the first B
    tag in its search's span, and walks only the tags with more than one B
    tag there.  B tags on and just past every window edge and the span's own
    edges, several per A tag, must give the oracles' histogram, index arrays
    and accidental count, in the tally and in each pass called alone."""

    WINDOW, HW, RANGE = 300, 150, 1000
    # (bin width, B tag of the peak, delay): a peak inside the range, and peaks
    # in its first and last 1 ps bins, whose centres round to -+RANGE, so that
    # the windows reach the tally's span edges
    PEAKS = [(50, 225, 225), (1, 999, 1000), (1, -1000, -1000)]

    def _streams(self, rng, peak, delay, offset):
        d, hw, r = delay, self.HW, self.RANGE
        far = r + hw + abs(offset)  # the tally's span reaches this far on the offset's side
        edges = [d - hw, d + hw, d - hw - 1, d + hw + 1, -r, r, -r - 1, r + 1]
        edges += [d + offset - hw, d + offset + hw, d + offset - hw - 1, d + offset + hw + 1]
        edges += [d + offset, far * np.sign(offset), (far + 1) * np.sign(offset), -r - hw, r + hw]
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
        reach = self.RANGE + self.HW
        base, top = -reach + min(offset, 0), reach + max(offset, 0) + 1
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
        tally = tally_basis(
            alice, bob, window_ps=self.WINDOW, duration_s=1.0, accidental_offset_ps=offset,
            hist_bin_ps=bin_width, hist_range_ps=self.RANGE,
        )
        bins = histogram_oracle(t_a, t_b, bin_width, self.RANGE)
        assert tally.delay_ps == delay
        np.testing.assert_array_equal(tally.histogram.bins, bins)
        want = [greedy_match_oracle(t_a, t_b, self.WINDOW, delay + o) for o in (0, offset)]
        assert [p.tolist() for p in passes] == [[list(p) for p in w] for w in want]
        assert tally.counts.total == len(want[0])
        assert tally.accidentals.count == len(want[1])

        # each pass alone, over a span of its own window only
        np.testing.assert_array_equal(cross_correlation(t_a, t_b, bin_width, self.RANGE).bins, bins)
        for at, pairs in zip((delay, delay + offset), want):
            assert count(t_a, t_b, self.WINDOW, at).tolist() == [list(p) for p in pairs]
        alone = estimate_accidentals(t_a, t_b, self.WINDOW, offset, 1.0, delay)
        assert alone.count == len(want[1])

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_empty_a_or_b(self, monkeypatch, block):
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        some, none = np.arange(0, 10**5, 97, dtype=np.int64), np.empty(0, dtype=np.int64)
        for t_a, t_b in ((some, none), (none, some), (none, none)):
            tally = tally_basis(
                make_tags(t_a, 0), make_tags(t_b, 2), window_ps=300, duration_s=1.0,
                accidental_offset_ps=-3000,
            )
            assert not tally.histogram.bins.any() and tally.histogram.bins.size == 200
            assert (tally.delay_ps, tally.counts.total, tally.accidentals.count) == (0, 0, 0)
            assert not cross_correlation(t_a, t_b, 50, 5000).bins.any()
            assert count_coincidences(t_a, t_b, 300, 25).shape == (0, 2)
            assert estimate_accidentals(t_a, t_b, 300, 3000, 1.0).count == 0


class TestCallBudget:
    """Each pass makes a fixed number of numpy calls per block of A, and two
    threads analyzing at once hand the GIL back and forth at every call, so
    the blocks stay few and large: a 500k-tag acquisition takes 4 blocks per
    pass.  A pass walks only in a block with a tag that has more than one B
    tag in the search's span, once for all of them, and the search not at
    all."""

    def test_a_500k_tag_acquisition(self, monkeypatch):
        rng = np.random.default_rng(12)
        t_a = np.sort(rng.integers(0, 60 * 10**12, 250_000))
        t_b = np.sort(t_a + rng.integers(-100, 101, t_a.size))
        alice = make_tags(t_a, rng.choice([0, 1], t_a.size))
        bob = make_tags(t_b, rng.choice([2, 3], t_b.size))
        blocks, fixups, walks = [], [0], [0]
        windows, walk = coincidence._Search.windows, coincidence._Search._walk

        def counted_windows(self, *args):
            blocks.append(len(self.bounds))
            fixups[0] += sum(m.size > 0 for m in self.multi)
            return windows(self, *args)

        def counted_walk(self, *args):
            walks[0] += 1
            return walk(self, *args)

        monkeypatch.setattr(coincidence._Search, "windows", counted_windows)
        monkeypatch.setattr(coincidence._Search, "_walk", counted_walk)
        tally = tally_basis(alice, bob, window_ps=300, duration_s=60.0, accidental_offset_ps=6000)
        # the histogram, coincidence and accidental passes
        assert blocks == [4, 4, 4]
        # 13 of the 250,000 A tags have two B tags in the span, in every block
        assert fixups[0] == sum(blocks) == 12
        assert walks[0] == fixups[0] == 12
        assert tally.counts.total > 0.99 * t_a.size

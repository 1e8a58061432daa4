"""Unit tests for the Monte Carlo photon-pair simulator."""

import functools
import hashlib
import itertools
import math
import re
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from mcfqkd.coincidence import count_coincidences, tally_basis
from mcfqkd import photonsim
from mcfqkd.geometry import build_layout
from mcfqkd.photonsim import (
    CH_ALICE_R,
    CH_ALICE_T,
    FLAG_DARK,
    PURPOSE_DRIFT,
    PS_PER_S,
    PURPOSE_TAGS,
    LinkParams,
    ScheduleSegment,
    SourceParams,
    Stream,
    UnsortedStreamError,
    apply_polarization_drift,
    joint_outcome_probs,
    _stream_rng,
    simulate_run,
)
from mcfqkd.qkdmath import visibility_from_counts
from mcfqkd.tagio import write_timetags
from oracles import born_rule_probs

LAYOUT = build_layout()


def record_sha256(stream, tmp_path):
    """SHA-256 of the records ``tagio`` writes for ``stream``: its file past the header."""
    path = tmp_path / f"channel{stream.channel_id}.mcqt"
    write_timetags(path, stream)
    return hashlib.sha256(path.read_bytes()[16:]).hexdigest()


def segment(duration_s, basis="HV", start_ps=0):
    """The ``duration_s`` acquisition in ``basis`` from ``start_ps``."""
    return ScheduleSegment(basis, start_ps, round(duration_s * PS_PER_S))


def make_channel(pair_index=0, coupling=1.0, **link_kwargs):
    from dataclasses import replace

    pair = replace(LAYOUT.pairs[pair_index], coupling_prob=coupling)
    params = dict(
        fiber_length_km=0.0,
        system_loss_db=0.0,
        dark_rate_cps=0.0,
        jitter_sigma_ps=0.0,
        crosstalk_prob=0.0,
    )
    params.update(link_kwargs)
    return pair, LinkParams(**params)


class TestJointOutcomeProbs:
    def test_perfect_correlation_in_hv(self):
        assert joint_outcome_probs(0.0, 0.0, 1.0) == pytest.approx((0.5, 0.0, 0.0, 0.5))

    def test_mutually_unbiased_bases(self):
        assert joint_outcome_probs(0.0, 45.0, 1.0) == pytest.approx((0.25,) * 4)

    def test_reduced_visibility(self):
        assert joint_outcome_probs(45.0, 45.0, 0.94) == pytest.approx(
            (0.485, 0.015, 0.015, 0.485)
        )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = joint_outcome_probs(
                rng.uniform(-180, 180), rng.uniform(-180, 180), rng.uniform(0, 1)
            )
            assert min(p) >= 0
            assert sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_matches_born_rule_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ta, tb = rng.uniform(0, 180), rng.uniform(0, 180)
            v = rng.uniform(0, 1)
            got = joint_outcome_probs(ta, tb, v)
            expected = born_rule_probs(ta, tb, v)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_invalid_visibility(self):
        with pytest.raises(ValueError):
            joint_outcome_probs(0, 0, 1.5)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_named(self, angle):
        # cos(nan) would make every probability NaN, and every pair's draw ++
        with pytest.raises(ValueError, match=rf"^theta_b_deg must be finite, got {angle}$"):
            joint_outcome_probs(0.0, angle, 0.94)
        with pytest.raises(ValueError, match=rf"^theta_a_deg must be finite, got {angle}$"):
            joint_outcome_probs(angle, 0.0, 0.94)


class TestSimulateRun:
    def test_deterministic_streams(self):
        source = SourceParams(pair_rate=50_000, visibility=0.94)
        ch = make_channel(dark_rate_cps=100.0, jitter_sigma_ps=50.0)
        runs = [
            simulate_run(source, *ch, segment(0.5), seed=7)
            for _ in range(2)
        ]
        a0 = runs[0].streams[0]
        a1 = runs[1].streams[0]
        for s0, s1 in ((a0.alice, a1.alice), (a0.bob, a1.bob)):
            assert s0.times.tobytes() == s1.times.tobytes()
            assert s0.codes.tobytes() == s1.codes.tobytes()

    def test_streams_sorted_and_bounded(self):
        source = SourceParams(pair_rate=100_000, visibility=0.9)
        ch = make_channel(dark_rate_cps=500.0, jitter_sigma_ps=80.0)
        res = simulate_run(source, *ch, segment(0.2), seed=3, angle_offset_deg=45.0)
        bound = 0.2e12 + 6 * 80
        for tags in (res.streams[0].alice, res.streams[0].bob):
            times = tags.times
            assert np.all(np.diff(times) >= 0)
            assert times.min() >= 0
            assert times.max() <= bound

    def test_times_outside_packed_key_range_rejected(self):
        # tags are sorted on (time*4 + channel)*2 + flag in int64
        source = SourceParams(pair_rate=10_000, visibility=0.9)
        ch = make_channel(dark_rate_cps=100.0)
        for offset in (-10**11, 2**60 - 10**9):
            with pytest.raises(ValueError, match="2\\*\\*60"):
                simulate_run(source, *ch, segment(0.01, start_ps=offset), seed=5)
        res = simulate_run(source, *ch, segment(0.01, start_ps=2**60 - 10**11), seed=5)
        assert int(res.streams[0].alice.times.max()) < 2**60

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_non_finite_drift_offset_named(self, offset):
        source = SourceParams(pair_rate=10_000, visibility=0.94)
        with pytest.raises(ValueError, match=rf"^theta_b_deg must be finite, got {offset}$"):
            simulate_run(source, *make_channel(), segment(0.01), seed=5, angle_offset_deg=offset)

    def test_singles_rate_poisson_consistency(self):
        # expected singles per arm: rate * coupling * transmission * T + dark * T
        coupling, trans_db, dark, duration = 0.4, 3.0, 200.0, 0.5
        source = SourceParams(pair_rate=40_000, visibility=0.9)
        ch = make_channel(coupling=coupling, system_loss_db=trans_db, dark_rate_cps=dark)
        t = 10 ** (-trans_db / 10)
        expected = 40_000 * coupling * t * duration + 2 * dark * duration
        totals = []
        for seed in range(100):
            res = simulate_run(source, *ch, segment(duration), seed=seed)
            totals.append(len(res.streams[0].alice))
        mean = np.mean(totals)
        sigma = math.sqrt(expected / len(totals))
        assert abs(mean - expected) < 3 * sigma

    def test_no_anticorrelated_events_at_unit_visibility(self):
        source = SourceParams(pair_rate=200_000, visibility=1.0)
        ch = make_channel()
        res = simulate_run(source, *ch, segment(0.5), seed=11)
        truth = res.truth.pairs[0]
        assert truth.outcome_counts[1] == 0
        assert truth.outcome_counts[2] == 0
        assert truth.emitted == sum(truth.outcome_counts)

    def test_visibility_recovery_end_to_end(self):
        source = SourceParams(pair_rate=150_000, visibility=0.94)
        ch = make_channel(jitter_sigma_ps=50.0)
        for basis in ("HV", "DA"):
            res = simulate_run(source, *ch, segment(1.0, basis), seed=13)
            streams = res.streams[0]
            tally = tally_basis(streams.alice, streams.bob, window_ps=300, duration_s=1.0)
            v = visibility_from_counts(tally.counts)
            sigma = math.sqrt((1 - 0.94**2) / tally.counts.total)
            assert abs(v - 0.94) < 4 * sigma

    def test_ground_truth_bookkeeping(self):
        source = SourceParams(pair_rate=80_000, visibility=0.94)
        res = simulate_run(source, *make_channel(0, 0.5), segment(0.25), seed=17)
        truth = res.truth
        lam = 80_000 * 0.5 * 0.25
        assert abs(sum(p.emitted for p in truth.pairs.values()) - lam) < 5 * math.sqrt(lam)

    def test_dark_tags_always_flagged(self):
        source = SourceParams(pair_rate=1_000, visibility=0.9)
        ch = make_channel(dark_rate_cps=5_000.0)
        res = simulate_run(source, *ch, segment(0.2), seed=5)
        n_marked = int(np.count_nonzero(res.streams[0].alice.codes & FLAG_DARK))
        assert n_marked == sum(
            res.truth.pairs[0].dark_counts[ch_id] for ch_id in (CH_ALICE_T, CH_ALICE_R)
        ) > 0

    def test_zero_coupling_warns(self):
        source = SourceParams(pair_rate=1_000, visibility=0.9)
        ch = make_channel(coupling=0.0)
        with pytest.warns(RuntimeWarning):
            simulate_run(source, *ch, segment(0.1), seed=1)

    def test_crosstalk_lost_without_layout(self):
        source = SourceParams(pair_rate=100_000, visibility=0.94)
        link = LinkParams(
            fiber_length_km=0.0, dark_rate_cps=0.0, jitter_sigma_ps=0.0, crosstalk_prob=0.05
        )
        pair = __import__("dataclasses").replace(LAYOUT.pairs[0], coupling_prob=0.5)
        res = simulate_run(source, pair, link, segment(0.2), seed=29)
        truth = res.truth.pairs[0]
        # lost photons leave both streams and break their coincidences: a
        # photon without its partner is in one stream only
        streams = res.streams[0]
        assert len(streams.alice) + len(streams.bob) == sum(truth.photon_singles.values())
        assert truth.true_coincidences == sum(truth.outcome_counts)
        assert len(streams.alice) > truth.true_coincidences
        assert len(streams.bob) > truth.true_coincidences

    def test_time_offset_shifts_streams(self):
        source = SourceParams(pair_rate=50_000, visibility=0.9)
        ch = make_channel()
        base = simulate_run(source, *ch, segment(0.1), seed=31)
        shifted = simulate_run(source, *ch, segment(0.1, start_ps=10**9), seed=31)
        np.testing.assert_array_equal(
            base.streams[0].alice.times + 10**9, shifted.streams[0].alice.times
        )


class TestPoissonSplit:
    """The three detected-pair counts are independent Poisson variables of
    means lambda p^2, lambda p(1-p) and lambda (1-p)p, with p the link's
    transmission times (1 - crosstalk).  Each check sums over SEEDS and
    allows 4 sigma of the sum's Poisson (or binomial) spread; a seed alone
    must fall within 5 sigma."""

    SEEDS = range(8)
    RATE, COUPLING, DURATION = 400_000, 0.5, 0.05

    def runs(self, basis="HV", angle=0.0, **link_kwargs):
        pair, link = make_channel(coupling=self.COUPLING, **link_kwargs)
        source = SourceParams(pair_rate=self.RATE, visibility=0.9)
        lam = self.RATE * self.COUPLING * self.DURATION
        p = link.transmission * (1.0 - link.crosstalk_prob)
        results = [
            simulate_run(source, pair, link, segment(self.DURATION, basis), seed=s, angle_offset_deg=angle)
            for s in self.SEEDS
        ]
        return [(r.streams[pair.pair_id], r.truth.pairs[pair.pair_id]) for r in results], lam, p

    @staticmethod
    def assert_poisson(counts, mean):
        for n in counts:
            assert abs(n - mean) < 5 * math.sqrt(mean), (n, mean)
        assert abs(sum(counts) - len(counts) * mean) < 4 * math.sqrt(len(counts) * mean)

    def test_counts_against_poisson_means(self):
        runs, lam, p = self.runs(system_loss_db=3.0, crosstalk_prob=0.02)
        both = [t.true_coincidences for _, t in runs]
        only_a = [t.photon_singles[0] + t.photon_singles[1] - t.true_coincidences for _, t in runs]
        only_b = [t.photon_singles[2] + t.photon_singles[3] - t.true_coincidences for _, t in runs]
        self.assert_poisson(both, lam * p * p)
        self.assert_poisson(only_a, lam * p * (1 - p))
        self.assert_poisson(only_b, lam * (1 - p) * p)
        self.assert_poisson([t.emitted for _, t in runs], lam)
        for _, t in runs:
            assert sum(t.outcome_counts) == t.true_coincidences

    def test_singles_per_channel(self):
        dark = 2_000.0
        runs, lam, p = self.runs(system_loss_db=3.0, crosstalk_prob=0.02, dark_rate_cps=dark)
        channels = np.concatenate([np.concatenate([st.alice.codes, st.bob.codes]) >> 1 for st, _ in runs])
        for ch in range(4):
            # each port sees half of an arm's photons, whatever the outcome probabilities
            photons = [t.photon_singles[ch] for _, t in runs]
            self.assert_poisson(photons, lam * p / 2)
            self.assert_poisson([t.dark_counts[ch] for _, t in runs], dark * self.DURATION)
            n, mean = int(np.count_nonzero(channels == ch)), lam * p / 2 + dark * self.DURATION
            assert abs(n - len(runs) * mean) < 4 * math.sqrt(len(runs) * mean)

    def test_outcome_frequencies(self):
        runs, _, _ = self.runs("DA", 10.0, system_loss_db=1.0, crosstalk_prob=0.02)
        probs = joint_outcome_probs(45.0, 55.0, 0.9)
        counts = np.sum([t.outcome_counts for _, t in runs], axis=0)
        n = int(counts.sum())
        for got, prob in zip(counts, probs):
            assert abs(got - n * prob) < 4 * math.sqrt(n * prob * (1 - prob)), (counts, probs)

    def test_crosstalk_heavy_link(self):
        # crosstalk is a loss: with no other loss each arm keeps p = 0.7 of its
        # photons, and a pair survives with p^2
        runs, lam, p = self.runs(crosstalk_prob=0.3)
        assert p == pytest.approx(0.7)
        self.assert_poisson([len(st.alice) for st, _ in runs], lam * p)
        self.assert_poisson([len(st.bob) for st, _ in runs], lam * p)
        self.assert_poisson([t.true_coincidences for _, t in runs], lam * p * p)
        # without jitter, delay or darks each both-detected pair shows as two
        # tags of equal time, and no other tags coincide
        for st, t in runs:
            assert len(count_coincidences(st.alice, st.bob, window_ps=1)) == t.true_coincidences


class TestStreamSeeds:
    """Every stream is seeded by the fixed-length tuple (seed, purpose,
    segment index, pair id), each entry one uint32 word."""

    def test_no_two_tuples_share_a_stream(self):
        starts = {}
        for entropy in itertools.product(
            (0, 1, 42, 7919, 7961, 2**32 - 1), (PURPOSE_TAGS, PURPOSE_DRIFT), range(4), range(9)
        ):
            starts[_stream_rng(*entropy).bit_generator.random_raw(4).tobytes()] = entropy
        assert len(starts) == 6 * 2 * 4 * 9

    def test_segments_do_not_alias_seeds(self):
        # seed + 7919 * segment used to give seed 42 segment 1 the stream of
        # seed 7961 segment 0
        source = SourceParams(pair_rate=50_000, visibility=0.9)
        pair, link = make_channel(dark_rate_cps=100.0, jitter_sigma_ps=50.0)
        runs = [
            simulate_run(source, pair, link, segment(0.05), seed=s, segment_index=k)
            for s, k in ((42, 1), (7961, 0), (42, 0))
        ]
        times = [r.streams[pair.pair_id].alice.times for r in runs]
        for i, j in itertools.combinations(range(3), 2):
            assert times[i].size != times[j].size or not np.array_equal(times[i], times[j])

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: _stream_rng(2**32, PURPOSE_TAGS, 0, 0), "seed"),
            (lambda: _stream_rng(-1, PURPOSE_TAGS, 0, 0), "seed"),
            (lambda: _stream_rng(0, PURPOSE_TAGS, 2**32, 0), "segment_index"),
            (
                lambda: simulate_run(
                    SourceParams(pair_rate=1_000), *make_channel(), segment(0.01),
                    seed=2**32 + 5,
                ),
                "seed",
            ),
            (lambda: apply_polarization_drift([1.0], 2.0, seed=2**32), "seed"),
        ],
        ids=["seed-2**32", "seed-negative", "segment-2**32", "simulate_run-seed", "drift-seed"],
    )
    def test_entry_beyond_one_word_rejected(self, call, name):
        # SeedSequence would split 2**32 + 5 into the words [5, 1], the
        # stream of another tuple
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 2\*\*32\)"):
            call()


class TestGoldenRun:
    """Byte-level pin of one acquisition on a link no preset uses: heavy
    crosstalk, 80 ps jitter, a 5 kcps dark rate and non-zero drift and time
    offsets.  Re-captured when the simulator moved to Poisson-split detection
    counts and fixed-length seed tuples, and again when the link's 12,345 ps
    propagation delay was deleted: every photon tag moved by -12,345 ps, every
    dark tag stayed, and the sizes and truth are unchanged.  Re-captured again
    when dark tags came to be flagged always: the hashes are the former run's
    with its dark tags flagged."""

    ALICE_SHA256 = "749d29273ab14a901c6f22b0f91a220679c7c908953d92399295a29e24995a53"
    BOB_SHA256 = "ba3722c5eaf84a764c1a8d1860cb39db90f5753700996920eb25cf010747c681"

    def test_streams_and_truth(self, tmp_path):
        ch = make_channel(
            4, 0.5, fiber_length_km=1.5, system_loss_db=2.0, detector_efficiency=0.8,
            dark_rate_cps=5_000.0, jitter_sigma_ps=80.0, crosstalk_prob=0.05,
        )
        res = simulate_run(
            SourceParams(pair_rate=300_000, visibility=0.9), *ch, segment(0.05, "DA", 3 * 10**12),
            seed=2024, angle_offset_deg=7.5,
        )
        streams = res.streams[4]
        assert (len(streams.alice), len(streams.bob)) == (3974, 3936)
        assert record_sha256(streams.alice, tmp_path) == self.ALICE_SHA256
        assert record_sha256(streams.bob, tmp_path) == self.BOB_SHA256
        truth = res.truth.pairs[4]
        assert truth.emitted == 7634
        assert truth.outcome_counts == (744, 51, 48, 747)
        assert truth.true_coincidences == 1590
        assert truth.photon_singles == {0: 1714, 1: 1731, 2: 1703, 3: 1758}
        assert truth.dark_counts == {0: 258, 1: 271, 2: 236, 3: 239}


class TestGoldenCorners:
    """Byte-level pins of the simulator's corners: no crosstalk, no jitter,
    no dark counts, dark counts only, and a dense source whose 2 ns jitter
    reorders many photons.  Each case pins both streams and a SHA-256 of
    ``repr(astuple(truth))``.  Re-captured when the simulator moved to
    Poisson-split detection counts and fixed-length seed tuples; the streams
    of "no-crosstalk", the one case that left its dark tags unflagged, again
    when dark tags came to be flagged always."""

    CASES = {
        "no-crosstalk": (
            dict(pair_index=1, coupling=0.6, dark_rate_cps=2_000.0, jitter_sigma_ps=50.0),
            200_000, 0.05, (3124, 3173),
            "27dc9cf312c3cf0d5ed6573ce69aaf5f9fc86c3681e7da6d82f953f02af31a0e",
            "923ab6e32d1d0d062330cbd00cedd5282435ebb4dd292b23868b2df61e5af197",
            "cf392e9ec7849146936fe9661ef163a4803e7932b1ad2428b0e97233242a61fc",
        ),
        "no-jitter": (
            dict(pair_index=2, coupling=0.6, dark_rate_cps=2_000.0, crosstalk_prob=0.01),
            200_000, 0.05, (3160, 3228),
            "468704090b5dffb046faab5e23b78bc9d690866b0f4c638068b8f9353fc0382f",
            "49f756a22abbcfb6d4ed9392deaf3d41341488e44af5c14b884e333359c931f8",
            "935be494e5691d38c12aa30999998710774e0c4bfb6f81856883189138c51f15",
        ),
        "no-darks": (
            dict(pair_index=3, coupling=0.6, jitter_sigma_ps=50.0, crosstalk_prob=0.01),
            200_000, 0.05, (2984, 2993),
            "81eed59f8f141ce74b36cfb2a37aa311b2529f856e03db3f6d83485fadef3b41",
            "3a3761bf9a41b721ebdfbdb25112ece28fe92e34cb9a55f32cca72a33a6a8fda",
            "7339701aa8a7aa7629ac35bf8835c6b03fc21fe9d6fc4430b736e54950c1033c",
        ),
        "zero-coupling": (
            dict(
                pair_index=5, coupling=0.0, dark_rate_cps=20_000.0, jitter_sigma_ps=50.0,
                crosstalk_prob=0.01,
            ),
            200_000, 0.05, (1947, 2038),
            "c85b39e6f2112cffd7d0078f2772d3f86f4df4cf3eb9bdb60165822ce8f59300",
            "0903e4d8339a74655f5a2201b06c4084c32f40a8509bdc3b9a1688098f56ad37",
            "a76f87c3674296e4e5c68e967041eeecb5ee4a27f79769bd6600a3a6564b2540",
        ),
        "dense-2ns-jitter": (
            dict(
                pair_index=6, coupling=1.0, system_loss_db=1.0, dark_rate_cps=20_000.0,
                jitter_sigma_ps=2_000.0, crosstalk_prob=0.01,
            ),
            5_000_000, 0.01, (39953, 39890),
            "283eb6367360c2b2513be185b5da647a268f79bb0731916fea80a5f726717f66",
            "59453a49188fc20e644e9f572cc233ff4fca3c61357326befc2404c31c87446c",
            "da53a661c2e46c18d2a3c0567510d915362c1e0e899c04a74c3326f29aada8a3",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_streams_and_truth(self, name, tmp_path):
        link_kwargs, rate, duration, sizes, alice_sha, bob_sha, truth_sha = self.CASES[name]
        link_kwargs = {"system_loss_db": 3.0, **link_kwargs}
        pair, link = make_channel(**link_kwargs)
        run = functools.partial(
            simulate_run, SourceParams(pair_rate=rate, visibility=0.9), pair, link,
            segment(duration, "DA"), seed=77, angle_offset_deg=4.0,
        )
        if pair.coupling_prob == 0.0:
            with pytest.warns(RuntimeWarning, match="zero coupling"):
                res = run()
        else:
            res = run()
        streams, truth = res.streams[pair.pair_id], res.truth.pairs[pair.pair_id]
        assert (len(streams.alice), len(streams.bob)) == sizes
        assert record_sha256(streams.alice, tmp_path) == alice_sha
        assert record_sha256(streams.bob, tmp_path) == bob_sha
        assert hashlib.sha256(repr(astuple(truth)).encode()).hexdigest() == truth_sha


def test_marked_tags_match_truth_per_channel():
    # oracle: the stream's flag-0 and flag-1 tags per channel are the truth's
    # photon singles and dark counts
    pair, link = make_channel(
        coupling=0.5, system_loss_db=2.0, dark_rate_cps=10_000.0, jitter_sigma_ps=300.0,
        crosstalk_prob=0.02,
    )
    res = simulate_run(
        SourceParams(pair_rate=400_000, visibility=0.9), pair, link, segment(0.05),
        seed=3,
    )
    truth = res.truth.pairs[pair.pair_id]
    codes = np.concatenate([res.streams[pair.pair_id].alice.codes, res.streams[pair.pair_id].bob.codes])
    assert set(np.unique(codes & 1)) == {0, FLAG_DARK}
    for ch in range(4):
        assert int(np.sum(codes == 2 * ch)) == truth.photon_singles[ch]
        assert int(np.sum(codes == 2 * ch + FLAG_DARK)) == truth.dark_counts[ch]


class TestStream:
    """A stream is checked where it is made: one-dimensional ``int64`` times
    in order, and one ``uint8`` code per time on its arm's channels."""

    def test_valid_stream(self):
        stream = Stream(np.array([1, 1, 5], dtype=np.int64), np.array([4, 7, 5], dtype=np.uint8), 1)
        assert len(stream) == 3 and stream.nbytes == 27

    @pytest.mark.parametrize(
        "times, codes, channel_id, error, message",
        [
            ([0, 5, 3], [0, 1, 2], 0, UnsortedStreamError, "times are not sorted at index 2"),
            ([-1, 5], [0, 1], 0, ValueError, r"times must lie in \[0, 2\*\*60\) ps, got -1"),
            ([0, 2**60], [0, 1], 0, ValueError, rf"times must lie in \[0, 2\*\*60\) ps, got {2**60}"),
            ([5, 2**63 - 1], [4, 5], 1, ValueError,
             rf"times must lie in \[0, 2\*\*60\) ps, got {2**63 - 1}"),
            ([1, 2], [0, 4], 0, ValueError, "code 4 at index 1 is not valid for channel id 0"),
            ([1, 2], [5, 8], 1, ValueError, "code 8 at index 1 is not valid for channel id 1"),
            ([1, 2], [3, 4], 1, ValueError, "code 3 at index 0 is not valid for channel id 1"),
            ([1, 2], [0], 0, ValueError, "codes must be a uint8 array as long as the times"),
            ([1.0, 2.0], [0, 0], 0, ValueError, "need one-dimensional int64 times and channel id 0 or 1, got 0"),
            ([[1, 2]], [[0, 0]], 0, ValueError, "need one-dimensional int64 times and channel id 0 or 1, got 0"),
            ([1, 2], [0, 0], 2, ValueError, "need one-dimensional int64 times and channel id 0 or 1, got 2"),
        ],
        ids=[
            "unsorted", "time--1", "time-2**60", "time-2**63-1", "bob-code-on-alice",
            "code-past-bob", "alice-code-on-bob", "short-codes", "float-times", "2-d", "channel-id-2",
        ],
    )
    def test_bad_stream_rejected(self, times, codes, channel_id, error, message):
        times = np.array(times, dtype=np.float64 if isinstance(times[0], float) else np.int64)
        with pytest.raises(error, match=rf"^{message}$"):
            Stream(times, np.array(codes, dtype=np.uint8), channel_id)

    def test_times_at_the_ends_of_0_to_2_60_ps_accepted(self):
        times = np.array([0, 0, 2**60 - 1, 2**60 - 1], dtype=np.int64)
        for t in (times, times[:1], times[-1:]):
            assert len(Stream(t, np.zeros(t.size, dtype=np.uint8), 0)) == t.size


@pytest.mark.parametrize("seed", range(20))
def test_chunked_jitter_equals_one_normal_draw(seed):
    # ``simulate_run`` draws its jitter as standard normal chunks scaled by
    # sigma: the values of one normal(0, sigma, n) draw, 0.0 + sigma*z, up to
    # the sign of zero, with the generator left where that draw leaves it
    n, sigma, chunk = 3 * photonsim._CHUNK + 17, 80.0, photonsim._CHUNK
    one, chunked = np.random.default_rng(seed), np.random.default_rng(seed)
    want = one.normal(0.0, sigma, n)
    buf = np.empty(chunk)
    for s in range(0, n, chunk):
        z = chunked.standard_normal(out=buf[: min(chunk, n - s)])
        z *= sigma
        assert z.tobytes() == want[s : s + z.size].tobytes()
    assert one.bit_generator.state == chunked.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_chunked_outcomes_equal_one_random_draw(seed):
    # ``simulate_run`` draws the pairs' outcomes as ``random`` chunks through the
    # buffer its jitter reuses: the values of one random(n) draw, with the
    # generator left where that draw leaves it
    n, chunk = 3 * photonsim._CHUNK + 17, photonsim._CHUNK
    one, chunked = np.random.default_rng(seed), np.random.default_rng(seed)
    want = one.random(n)
    buf = np.empty(chunk)
    for s in range(0, n, chunk):
        u = chunked.random(out=buf[: n - s])
        assert u.tobytes() == want[s : s + u.size].tobytes()
    assert one.bit_generator.state == chunked.bit_generator.state


def test_outcome_codes_are_those_of_one_random_draw():
    # oracle: the outcome (++, +-, -+, --) of each of one random(n) draw is the count
    # of cumulative probabilities at or below it; Alice's photon reflects (code 2)
    # for outcomes 2 and 3, Bob's (code 6, else 4) for the odd ones
    n = 3 * photonsim._CHUNK + 17
    cum_probs = np.cumsum(joint_outcome_probs(0.0, 30.0, 0.9))[:3]
    one, chunked = np.random.default_rng(8), np.random.default_rng(8)
    outcome = np.sum(cum_probs[:, None] <= one.random(n), axis=0)
    codes = [np.full(n + 3, 99, dtype=np.uint8), np.full(n + 2, 99, dtype=np.uint8)]
    n_ge = photonsim._draw_outcomes(chunked, cum_probs, n, np.empty(photonsim._CHUNK), codes)
    assert one.bit_generator.state == chunked.bit_generator.state
    assert n_ge == [int(np.count_nonzero(outcome >= k)) for k in range(5)]
    assert np.array_equal(codes[0][:n], 2 * (outcome >= 2))
    assert np.array_equal(codes[1][:n], 4 + 2 * (outcome % 2))
    assert (codes[0][n:] == 99).all() and (codes[1][n:] == 99).all()  # the lone photons' part


def test_truth_counts_are_those_of_the_codes_past_two_chunks():
    # outcomes drawn in more than two chunks: with no loss, darks or jitter both
    # arms hold every pair at one time, so each pair's outcome reads off its two
    # codes; on a lossy, noisy link each channel's photon singles are its flag-0 tags
    pair, link = make_channel()
    res = simulate_run(SourceParams(pair_rate=30_000, visibility=0.9), pair, link, segment(6.0),
                       seed=2, angle_offset_deg=20.0)
    streams, truth = res.streams[pair.pair_id], res.truth.pairs[pair.pair_id]
    assert truth.true_coincidences > 2 * photonsim._CHUNK
    assert np.array_equal(streams.alice.times, streams.bob.times)
    outcome = (streams.alice.codes & 2) + (streams.bob.codes >> 1 & 1)
    assert truth.outcome_counts == tuple(int(np.count_nonzero(outcome == k)) for k in range(4))
    pair, link = make_channel(
        system_loss_db=1.0, dark_rate_cps=10_000.0, jitter_sigma_ps=300.0, crosstalk_prob=0.02
    )
    res = simulate_run(SourceParams(pair_rate=3_000_000, visibility=0.9), pair, link, segment(0.1),
                       seed=3, angle_offset_deg=20.0)
    streams, truth = res.streams[pair.pair_id], res.truth.pairs[pair.pair_id]
    assert truth.true_coincidences > 2 * photonsim._CHUNK and sum(truth.outcome_counts) == truth.true_coincidences
    codes = np.concatenate([streams.alice.codes, streams.bob.codes])
    assert truth.photon_singles == {ch: int(np.count_nonzero(codes == 2 * ch)) for ch in range(4)}
    assert truth.dark_counts == {ch: int(np.count_nonzero(codes == 2 * ch + FLAG_DARK)) for ch in range(4)}


def test_acquisition_too_large_to_allocate_names_its_size(monkeypatch):
    # a stand-in generator whose arrays of times cannot be allocated, as a 6e5 s
    # acquisition's cannot: refused by name, not with numpy's error
    def no_memory(*args, **kwargs):
        raise MemoryError

    real = photonsim._stream_rng
    monkeypatch.setattr(
        photonsim, "_stream_rng", lambda *args: SimpleNamespace(poisson=real(*args).poisson, integers=no_memory)
    )
    pair, link = make_channel()  # lossless: the tags are the pairs' two photons
    n_both = int(real(1, PURPOSE_TAGS, 0, pair.pair_id).poisson(1_000.0 * 0.5))
    with pytest.raises(ValueError, match=rf"^{2 * n_both} photon tags of a 0.5 s acquisition cannot be allocated$"):
        simulate_run(SourceParams(pair_rate=1_000.0), pair, link, segment(0.5), seed=1)


@pytest.mark.parametrize("duration", [1, 7, 2**32 + 1, 60 * PS_PER_S])
def test_draw_from_start_equals_start_plus_a_draw_from_zero(duration):
    # ``simulate_run`` draws its times on [start, start + duration): the values of
    # a draw on [0, duration) plus start, with the generator left where that draw
    # leaves it, so a segment's start moves its times and changes no other value
    start, n = 86_000 * PS_PER_S, 1000
    shifted, zero = np.random.default_rng(5), np.random.default_rng(5)
    got = shifted.integers(start, start + duration, n, np.int64)
    assert got.tobytes() == (start + zero.integers(0, duration, n, np.int64)).tobytes()
    assert shifted.bit_generator.state == zero.bit_generator.state


class TestLinkParams:
    def test_transmission_factors_multiply(self):
        fiber_only = LinkParams(fiber_length_km=10.0, fiber_loss_db_per_km=0.2)
        system_only = LinkParams(fiber_length_km=0.0, system_loss_db=3.0)
        detector_only = LinkParams(fiber_length_km=0.0, detector_efficiency=0.8)
        combined = LinkParams(
            fiber_length_km=10.0,
            fiber_loss_db_per_km=0.2,
            system_loss_db=3.0,
            detector_efficiency=0.8,
        )
        product = (
            fiber_only.transmission * system_only.transmission * detector_only.transmission
        )
        assert combined.transmission == pytest.approx(product, rel=1e-12)

    def test_ring_loss_scale(self):
        # a 40.06 dB two-arm budget: each arm passes 10^(-20.03/10)
        arm = LinkParams(fiber_length_km=0.0, system_loss_db=40.06 / 2)
        assert arm.transmission == pytest.approx(10 ** (-2.003), rel=1e-12)
        assert arm.transmission**2 == pytest.approx(10 ** (-4.006), rel=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LinkParams(detector_efficiency=0.0)
        with pytest.raises(ValueError):
            LinkParams(crosstalk_prob=1.0)
        with pytest.raises(ValueError):
            LinkParams(fiber_length_km=-1.0)


class TestPolarizationDrift:
    def test_zero_rate_gives_zero_offsets(self):
        offsets = apply_polarization_drift([0.5, 1.0, 1.5], 0.0, seed=1)
        np.testing.assert_array_equal(offsets, np.zeros(3))

    def test_one_hour_standard_deviation(self):
        # the walk reaches std ~= rate after one hour (before reflection);
        # a wide reflection bound keeps the fold from biasing the estimate
        samples = [
            apply_polarization_drift([1.0], 2.0, seed=s, max_offset_deg=50.0)[0]
            for s in range(4000)
        ]
        std = float(np.std(samples))
        assert std == pytest.approx(2.0, rel=0.1)

    def test_reflection_bound_respected(self):
        times = np.linspace(0.1, 100.0, 400)
        offsets = apply_polarization_drift(times, 30.0, seed=3, max_offset_deg=3.0)
        assert np.all(np.abs(offsets) <= 3.0)

    def test_deterministic(self):
        a = apply_polarization_drift([0.5, 1.0], 2.0, seed=9)
        b = apply_polarization_drift([0.5, 1.0], 2.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            apply_polarization_drift([1.0], -1.0, seed=0)

    @pytest.mark.parametrize(
        "rate, max_offset, message",
        [
            (math.nan, 3.0, "drift rate must be finite and >= 0, got nan"),
            (math.inf, 3.0, "drift rate must be finite and >= 0, got inf"),
            (2.0, math.nan, "max_offset_deg must be finite and > 0, got nan"),
            (2.0, math.inf, "max_offset_deg must be finite and > 0, got inf"),
            # refused before the zero rate's early return
            (0.0, 0.0, "max_offset_deg must be finite and > 0, got 0.0"),
            (0.0, -3.0, "max_offset_deg must be finite and > 0, got -3.0"),
        ],
        ids=["rate-nan", "rate-inf", "max-offset-nan", "max-offset-inf", "max-offset-0", "max-offset-negative"],
    )
    def test_bad_walk_rejected(self, rate, max_offset, message):
        # unchecked, a NaN or infinite argument gives NaN offsets, and a bad bound at rate 0 zeros
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_polarization_drift([0.0, 1.0], rate, seed=1, max_offset_deg=max_offset)

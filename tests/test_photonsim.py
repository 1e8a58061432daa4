"""Unit tests for the Monte Carlo photon-pair simulator."""

import functools
import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest

from mcfqkd.coincidence import tally_basis
from mcfqkd.geometry import build_layout
from mcfqkd.photonsim import (
    CH_ALICE_R,
    CH_ALICE_T,
    FLAG_DARK,
    AnalyzerSetting,
    LinkParams,
    SourceParams,
    apply_polarization_drift,
    joint_outcome_probs,
    simulate_run,
)
from mcfqkd.qkdmath import visibility_from_counts
from oracles import born_rule_probs

LAYOUT = build_layout()


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


class TestSimulateRun:
    def test_deterministic_streams(self):
        source = SourceParams(pair_rate=50_000, visibility=0.94)
        ch = make_channel(dark_rate_cps=100.0, jitter_sigma_ps=50.0)
        runs = [
            simulate_run(source, *ch, AnalyzerSetting.hv(), 0.5, seed=7)
            for _ in range(2)
        ]
        a0 = runs[0].streams[0]
        a1 = runs[1].streams[0]
        assert a0.alice.tobytes() == a1.alice.tobytes()
        assert a0.bob.tobytes() == a1.bob.tobytes()

    def test_streams_sorted_and_bounded(self):
        source = SourceParams(pair_rate=100_000, visibility=0.9)
        ch = make_channel(dark_rate_cps=500.0, jitter_sigma_ps=80.0)
        res = simulate_run(source, *ch, AnalyzerSetting.hv(), 0.2, seed=3, angle_offset_deg=45.0)
        bound = 0.2e12 + 6 * 80
        for tags in (res.streams[0].alice, res.streams[0].bob):
            times = tags["time_ps"].astype(np.int64)
            assert np.all(np.diff(times) >= 0)
            assert times.min() >= 0
            assert times.max() <= bound

    def test_times_outside_packed_key_range_rejected(self):
        # tags are sorted on (time*4 + channel)*2 + flag in int64
        source = SourceParams(pair_rate=10_000, visibility=0.9)
        ch = make_channel(dark_rate_cps=100.0)
        for offset in (-10**11, 2**60 - 10**9):
            with pytest.raises(ValueError, match="2\\*\\*60"):
                simulate_run(
                    source, *ch, AnalyzerSetting.hv(), 0.01, seed=5,
                    time_offset_ps=offset,
                )
        res = simulate_run(
            source, *ch, AnalyzerSetting.hv(), 0.01, seed=5,
            time_offset_ps=2**60 - 10**11,
        )
        assert int(res.streams[0].alice["time_ps"].max()) < 2**60

    def test_singles_rate_poisson_consistency(self):
        # expected singles per arm: rate * coupling * transmission * T + dark * T
        coupling, trans_db, dark, duration = 0.4, 3.0, 200.0, 0.5
        source = SourceParams(pair_rate=40_000, visibility=0.9)
        ch = make_channel(coupling=coupling, system_loss_db=trans_db, dark_rate_cps=dark)
        t = 10 ** (-trans_db / 10)
        expected = 40_000 * coupling * t * duration + 2 * dark * duration
        totals = []
        for seed in range(100):
            res = simulate_run(source, *ch, AnalyzerSetting.hv(), duration, seed=seed)
            totals.append(len(res.streams[0].alice))
        mean = np.mean(totals)
        sigma = math.sqrt(expected / len(totals))
        assert abs(mean - expected) < 3 * sigma

    def test_no_anticorrelated_events_at_unit_visibility(self):
        source = SourceParams(pair_rate=200_000, visibility=1.0)
        ch = make_channel()
        res = simulate_run(source, *ch, AnalyzerSetting.hv(), 0.5, seed=11)
        truth = res.truth.pairs[0]
        assert truth.outcome_counts[1] == 0
        assert truth.outcome_counts[2] == 0
        assert truth.emitted == sum(truth.outcome_counts)

    def test_visibility_recovery_end_to_end(self):
        source = SourceParams(pair_rate=150_000, visibility=0.94)
        ch = make_channel(jitter_sigma_ps=50.0)
        for setting in (AnalyzerSetting.hv(), AnalyzerSetting.da()):
            res = simulate_run(source, *ch, setting, 1.0, seed=13)
            streams = res.streams[0]
            tally = tally_basis(streams.alice, streams.bob, window_ps=300, duration_s=1.0)
            v = visibility_from_counts(tally.counts)
            sigma = math.sqrt((1 - 0.94**2) / tally.counts.total)
            assert abs(v - 0.94) < 4 * sigma

    def test_ground_truth_bookkeeping(self):
        source = SourceParams(pair_rate=80_000, visibility=0.94)
        res = simulate_run(source, *make_channel(0, 0.5), AnalyzerSetting.hv(), 0.25, seed=17)
        truth = res.truth
        lam = 80_000 * 0.5 * 0.25
        assert abs(sum(p.emitted for p in truth.pairs.values()) - lam) < 5 * math.sqrt(lam)

    def test_dark_flags_only_when_enabled(self):
        source = SourceParams(pair_rate=1_000, visibility=0.9)
        ch = make_channel(dark_rate_cps=5_000.0)
        marked = simulate_run(
            source, *ch, AnalyzerSetting.hv(), 0.2, seed=5,
            mark_dark_tags=True,
        )
        plain = simulate_run(
            source, *ch, AnalyzerSetting.hv(), 0.2, seed=5,
            mark_dark_tags=False,
        )
        n_marked = int((marked.streams[0].alice["flags"] & FLAG_DARK).sum())
        assert n_marked == sum(
            marked.truth.pairs[0].dark_counts[ch_id] for ch_id in (CH_ALICE_T, CH_ALICE_R)
        )
        assert int((plain.streams[0].alice["flags"] & FLAG_DARK).sum()) == 0

    def test_zero_coupling_warns(self):
        source = SourceParams(pair_rate=1_000, visibility=0.9)
        ch = make_channel(coupling=0.0)
        with pytest.warns(RuntimeWarning):
            simulate_run(source, *ch, AnalyzerSetting.hv(), 0.1, seed=1)

    def test_crosstalk_lost_without_layout(self):
        source = SourceParams(pair_rate=100_000, visibility=0.94)
        link = LinkParams(
            fiber_length_km=0.0, dark_rate_cps=0.0, jitter_sigma_ps=0.0, crosstalk_prob=0.05
        )
        pair = __import__("dataclasses").replace(LAYOUT.pairs[0], coupling_prob=0.5)
        res = simulate_run(source, pair, link, AnalyzerSetting.hv(), 0.2, seed=29)
        truth = res.truth.pairs[0]
        assert truth.crosstalk_out > 0
        # lost photons leave both streams and break their coincidences
        streams = res.streams[0]
        assert len(streams.alice) + len(streams.bob) == sum(truth.photon_singles.values())
        assert truth.true_coincidences < sum(truth.outcome_counts)

    def test_time_offset_shifts_streams(self):
        source = SourceParams(pair_rate=50_000, visibility=0.9)
        ch = make_channel()
        base = simulate_run(source, *ch, AnalyzerSetting.hv(), 0.1, seed=31)
        shifted = simulate_run(
            source, *ch, AnalyzerSetting.hv(), 0.1, seed=31,
            time_offset_ps=10**9,
        )
        np.testing.assert_array_equal(
            base.streams[0].alice["time_ps"].astype(np.int64) + 10**9,
            shifted.streams[0].alice["time_ps"].astype(np.int64),
        )


class TestGoldenRun:
    """Byte-level pin of one acquisition on a link no preset uses: a
    propagation delay, heavy crosstalk, 80 ps jitter, a 5 kcps dark rate and
    non-zero drift and time offsets."""

    ALICE_SHA256 = "e203d6ad060926f80c426adaadb13f132e36adb129d49be7d091d97078673d38"
    BOB_SHA256 = "87e8e8acd1dd0f0010789343d8ee279d7200dd4efa39bbcc54890cf3b60bf4ab"

    def test_streams_and_truth(self):
        ch = make_channel(
            4, 0.5, fiber_length_km=1.5, system_loss_db=2.0, detector_efficiency=0.8,
            dark_rate_cps=5_000.0, jitter_sigma_ps=80.0, crosstalk_prob=0.05,
            propagation_delay_ps=12_345,
        )
        res = simulate_run(
            SourceParams(pair_rate=300_000, visibility=0.9), *ch, AnalyzerSetting.da(), 0.05,
            seed=2024, angle_offset_deg=7.5, time_offset_ps=3 * 10**12, mark_dark_tags=False,
        )
        streams = res.streams[4]
        assert (len(streams.alice), len(streams.bob)) == (3835, 3885)
        assert hashlib.sha256(streams.alice.tobytes()).hexdigest() == self.ALICE_SHA256
        assert hashlib.sha256(streams.bob.tobytes()).hexdigest() == self.BOB_SHA256
        truth = res.truth.pairs[4]
        assert truth.emitted == 7556
        assert truth.outcome_counts == (769, 54, 51, 801)
        assert truth.true_coincidences == 1500
        assert truth.photon_singles == {0: 1659, 1: 1710, 2: 1687, 3: 1696}
        assert truth.dark_counts == {0: 238, 1: 228, 2: 259, 3: 243}
        assert truth.crosstalk_out == 345


class TestGoldenCorners:
    """Byte-level pins of the simulator's corners: no crosstalk, no jitter,
    no dark counts, dark counts only, and a dense source whose 2 ns jitter
    reorders many photons.  Each case pins both streams and a SHA-256 of
    ``repr(astuple(truth))``."""

    CASES = {
        "no-crosstalk": (
            dict(pair_index=1, coupling=0.6, dark_rate_cps=2_000.0, jitter_sigma_ps=50.0),
            200_000, 0.05, False, (3194, 3152),
            "c68aa250c53e331baebde5287562079935565c0d2dda99f780a4514db9f75112",
            "43017d00ed2ba1f2bbf7b57dedbb3e082c394782a854ee64af793a61e86e16d6",
            "3887ba15ecb84fca095809794deaa3c9254b461a57966154576fd7f7447326ca",
        ),
        "no-jitter": (
            dict(pair_index=2, coupling=0.6, dark_rate_cps=2_000.0, crosstalk_prob=0.01),
            200_000, 0.05, True, (3219, 3176),
            "a8b5c140d55c2ae4d42f87d2fc31db9fc1d159df5260d5adb1fb1d08cc60d2d2",
            "ae3d2b836d6a8de40b4a28cb72af51bc0255ca5e1e9e51dee81b21e214833668",
            "32a4f640d6eb9dbb4ca6da1b2592c51aa0404ab22f27ae99fb03138c7e5127bc",
        ),
        "no-darks": (
            dict(pair_index=3, coupling=0.6, jitter_sigma_ps=50.0, crosstalk_prob=0.01),
            200_000, 0.05, False, (3024, 3053),
            "d7e40bdb4c3043ab9700d90781cd245fb41f0f60e3d8601d2a906e9db1523420",
            "f1e9c292d5f38ac63e323708facba0a39a21823866ea1409fb9a08a67defcb21",
            "f5b684092b0fcb4b346c4f858610c3b6c82ca9a381a41fd95e610d0f4cc7eeb9",
        ),
        "zero-coupling": (
            dict(
                pair_index=5, coupling=0.0, dark_rate_cps=20_000.0, jitter_sigma_ps=50.0,
                crosstalk_prob=0.01,
            ),
            200_000, 0.05, True, (2007, 2086),
            "235542802ee06d297db104271e1e1d2396b00e6d474e8cb9610c720166cd8cf3",
            "7d3ae799b9fec5da899f245f3d01e2ef961e8f3da50b9c196fbc0a54c78bef3f",
            "f354752f05f2605b599fcfcc42cf179bd13232be9834b02bd34f07dd673b5b19",
        ),
        "dense-2ns-jitter": (
            dict(
                pair_index=6, coupling=1.0, system_loss_db=1.0, dark_rate_cps=20_000.0,
                jitter_sigma_ps=2_000.0, crosstalk_prob=0.01,
            ),
            5_000_000, 0.01, True, (40034, 40242),
            "0eaa1888ba658a85e5307ce3aef537c2a847cd799c035428392f73a1fdca2ee5",
            "b24212c739592eaf021d922cd3e79d9a8fa0a6cbee97c5df1c27afc904bb13d6",
            "0ba67580a311bb63bad35f453011e47fa68d7cc37668b74785e2a0a8d47d975e",
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_streams_and_truth(self, name):
        link_kwargs, rate, duration, mark, sizes, alice_sha, bob_sha, truth_sha = self.CASES[name]
        link_kwargs = {"system_loss_db": 3.0, **link_kwargs}
        pair, link = make_channel(**link_kwargs)
        run = functools.partial(
            simulate_run, SourceParams(pair_rate=rate, visibility=0.9), pair, link,
            AnalyzerSetting.da(), duration, seed=77, angle_offset_deg=4.0, mark_dark_tags=mark,
        )
        if pair.coupling_prob == 0.0:
            with pytest.warns(RuntimeWarning, match="zero coupling"):
                res = run()
        else:
            res = run()
        streams, truth = res.streams[pair.pair_id], res.truth.pairs[pair.pair_id]
        assert (len(streams.alice), len(streams.bob)) == sizes
        assert hashlib.sha256(streams.alice.tobytes()).hexdigest() == alice_sha
        assert hashlib.sha256(streams.bob.tobytes()).hexdigest() == bob_sha
        assert hashlib.sha256(repr(astuple(truth)).encode()).hexdigest() == truth_sha


def test_marked_tags_match_truth_per_channel():
    # oracle: with dark tags marked, the stream's flag-0 and flag-1 tags per
    # channel are the truth's photon singles and dark counts
    pair, link = make_channel(
        coupling=0.5, system_loss_db=2.0, dark_rate_cps=10_000.0, jitter_sigma_ps=300.0,
        crosstalk_prob=0.02,
    )
    res = simulate_run(
        SourceParams(pair_rate=400_000, visibility=0.9), pair, link, AnalyzerSetting.hv(), 0.05,
        seed=3, mark_dark_tags=True,
    )
    truth = res.truth.pairs[pair.pair_id]
    tags = np.concatenate([res.streams[pair.pair_id].alice, res.streams[pair.pair_id].bob])
    assert set(np.unique(tags["flags"])) == {0, FLAG_DARK}
    for ch in range(4):
        on_ch = tags[tags["channel"] == ch]
        assert int(np.sum(on_ch["flags"] == 0)) == truth.photon_singles[ch]
        assert int(np.sum(on_ch["flags"] == FLAG_DARK)) == truth.dark_counts[ch]


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

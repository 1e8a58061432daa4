"""Statistical laws of the simulation and analysis chain, checked over seeds.

A law runs short acquisitions of a configuration through
``runner.simulate_segment`` (one ``simulate_run``) and
``runner.analyze_segment`` (one ``tally_basis``) for each seed, core pair
and basis, and keeps one ``Observation`` per acquisition: the analyzed
value, its analytic expectation and the standard deviation the expectation
implies.  ``Law`` pools them and names the acquisition that strays most, so
a failing law says where it failed.

The laws so far:

* ``accidental_law``: the accidentals estimated from the histogram's
  sidebands against ``S_a * S_b * window * T``, with the error of the
  sideband count that expectation implies.
* ``drift_law``: each slot's QBER of a stability run against the Born rule
  at that slot's drift offset, with the binomial error of its coincidences.
* ``drift_step_law``: the drift walk's increments between slots against
  N(0, rate**2 * dt), on a walk whose walls are too far to fold it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Tuple

from mcfqkd.coincidence import ACCIDENTAL_GAP_PS, HIST_BIN_PS, HIST_RANGE_PS, BasisTally
from mcfqkd.config import RunConfig, selected_pairs
from mcfqkd.photonsim import ANALYZER_ANGLE_DEG, PS_PER_S, PairTruth, ScheduleSegment
from mcfqkd.photonsim import apply_polarization_drift
from mcfqkd.runner import StabilityPoint, analyze_segment, simulate_segment
from oracles import born_rule_probs, sideband_oracle


@dataclass(frozen=True)
class Observation:
    name: str
    value: float
    expected: float
    sigma: float

    @property
    def z(self) -> float:
        return (self.value - self.expected) / self.sigma


@dataclass(frozen=True)
class Law:
    """One observable over many acquisitions.  ``pooled_z`` is the z-score of
    their sum, which stays normal where each acquisition holds only a few
    counts; ``worst`` is the acquisition with the largest ``|z|``."""

    name: str
    observations: Tuple[Observation, ...]

    @property
    def pooled_z(self) -> float:
        deviation = sum(o.value - o.expected for o in self.observations)
        return deviation / math.sqrt(sum(o.sigma**2 for o in self.observations))

    @property
    def chi2(self) -> float:
        """Sum of the squared z-scores: chi-square with one degree per acquisition."""
        return sum(o.z**2 for o in self.observations)

    @property
    def worst(self) -> Observation:
        return max(self.observations, key=lambda o: abs(o.z))

    def __str__(self) -> str:
        w = self.worst
        return (
            f"{self.name}: pooled z {self.pooled_z:+.2f} over {len(self.observations)} acquisitions;"
            f" worst {w.name}: z {w.z:+.2f}, {w.value:.4g} against {w.expected:.4g} +- {w.sigma:.3g}"
        )


def acquisitions(
    cfg: RunConfig, seeds: Sequence[int], duration_s: float, pair_ids: Sequence[int] = ()
) -> Iterator[Tuple[str, RunConfig, BasisTally, PairTruth]]:
    """``(name, config, record, truth)`` of one ``duration_s`` acquisition per seed, core pair
    (all of the ring unless ``pair_ids``) and basis, analyzed as ``mcfqkd analyze`` does."""
    for seed in seeds:
        run = replace(cfg, seed=seed)
        for pair in selected_pairs(run):
            if pair_ids and pair.pair_id not in pair_ids:
                continue
            for k, basis in enumerate(run.schedule.bases):
                segment = ScheduleSegment(basis, 0, round(duration_s * PS_PER_S))
                alice, bob, truth = simulate_segment(run, pair, segment, k, 0.0)
                name = f"{run.ring} seed {seed} pair {pair.pair_id} {basis}"
                yield name, run, analyze_segment(alice, bob, segment, run), truth


def accidental_law(
    cfg: RunConfig, seeds: Sequence[int], duration_s: float, pair_ids: Sequence[int] = ()
) -> Law:
    """The accidental estimate of each acquisition against its analytic count ``m``.

    The estimate is the sideband count times ``width / covered`` (window and
    sideband integer delays), whose mean is ``m * covered / width``.  It is not
    Poisson where most tags are paired photons: two pairs detected in both arms
    ``D`` apart give two cross pairs, at ``+D`` and ``-D``, both in the sidebands,
    so a share ``f = C**2 / (n_a * n_b)`` of the count (``C`` such pairs, ``n_a``
    and ``n_b`` tags) comes in twins and its variance is ``1 + f`` times its mean:
    the sigma is ``sqrt(m * width / covered * (1 + f))``."""
    observations = []
    for name, run, tally, truth in acquisitions(cfg, seeds, duration_s, pair_ids):
        # the tally's own grid, which ``analyze_segment`` uses
        _, covered = sideband_oracle(
            [0] * (2 * HIST_RANGE_PS // HIST_BIN_PS), HIST_BIN_PS, HIST_RANGE_PS,
            tally.delay_ps, ACCIDENTAL_GAP_PS,
        )
        est, width = tally.accidentals, run.analysis.window_ps // 2 * 2 + 1
        n_a, n_b = (
            sum(truth.photon_singles[d] + truth.dark_counts[d] for d in arm) for arm in ((0, 1), (2, 3))
        )
        twins = truth.true_coincidences**2 / (n_a * n_b) if n_a * n_b else 0.0
        sigma = math.sqrt(est.analytic * width / covered * (1 + twins))
        observations.append(Observation(name, est.count, est.analytic, sigma))
    return Law("accidentals", tuple(observations))


def drift_law(cfg: RunConfig, points: Sequence[StabilityPoint], acquisition_s: float) -> Law:
    """The QBER of each slot of ``run_stability`` against the Born rule at its basis angle
    ``t`` and drift offset ``d``: Alice's analyzer at ``t`` and Bob's at ``t + d`` give
    different outcomes with probability ``Q = (1 - V cos 2d) / 2``, and the slot's ``N``
    coincidences give the binomial sigma ``sqrt(Q (1 - Q) / N)``.  ``Q`` is even in ``d``:
    the law sees a dropped or scaled offset, not its sign."""
    observations = []
    for p in points:
        theta, offset = ANALYZER_ANGLE_DEG[p.basis], p.drift_offset_deg
        _, pm, mp, _ = born_rule_probs(theta, theta + offset, cfg.source.visibility)
        q, n = pm + mp, round(p.coincidence_rate_cps * acquisition_s)
        name = f"slot {p.slot} {p.basis} at {offset:+.2f} deg"
        observations.append(Observation(name, p.qber, q, math.sqrt(q * (1.0 - q) / n)))
    return Law("drift", tuple(observations))


#: walls of the drift walk that no 24 h walk of a few degrees per hour reaches
UNFOLDED_DEG = 1000.0


def drift_step_law(cfg: RunConfig, seeds: Sequence[int], slot_hours: Sequence[float]) -> Law:
    """The increments of each seed's drift walk between consecutive slots against
    N(0, rate**2 * dt), one observation per increment, so ``chi2`` has one degree each.

    The walk is ``apply_polarization_drift`` at the config's rate and seed with walls
    at +-``UNFOLDED_DEG``, which it must not reach: every increment is then one with
    no fold.  The run's own offsets are this walk reflected at ``max_offset_deg``
    (the caller checks that against ``oracles.reflect_oracle``).  Taking only the
    increments of the reflected walk that no fold touched would not do: that choice
    keeps the shorter steps (their chi-square per degree reads about 0.77)."""
    rate, observations = cfg.drift.rate_deg_per_hour, []
    dt = [b - a for a, b in zip(slot_hours, slot_hours[1:])]
    for seed in seeds:
        walk = apply_polarization_drift(slot_hours, rate, seed, UNFOLDED_DEG)
        assert max(abs(walk)) < UNFOLDED_DEG / 2, f"seed {seed}: the walk nears its walls"
        for k, step in enumerate(walk[1:] - walk[:-1]):
            sigma = rate * math.sqrt(dt[k])
            observations.append(Observation(f"seed {seed} slots {k}-{k + 1}", float(step), 0.0, sigma))
    return Law("drift steps", tuple(observations))

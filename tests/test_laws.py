"""The statistical laws of ``laws.py`` over seeds, presets and bases."""

from dataclasses import replace

import pytest
from scipy.stats import chi2

from mcfqkd.config import preset_inner, preset_outer, preset_stability
from mcfqkd.photonsim import apply_polarization_drift
from laws import UNFOLDED_DEG, Law, accidental_law, drift_step_law
from oracles import reflect_oracle

#: each preset at its own seed and at these, taken in order, not picked
EXTRA_SEEDS = [1, 2, 3, 4, 5]


def test_accidental_law_on_both_presets():
    # 5 s of every pair of both rings in both bases: an inner acquisition has
    # about 0.03 accidentals in its window and 0.9 counts in the sidebands, an
    # outer one 0.1 and 2.9, mostly in twins (``accidental_law``), too few for a
    # normal z each, so the law is on their sum (about 240 counts); the worst
    # acquisition is named all the same
    observations = ()
    for cfg in (preset_inner(), preset_outer()):
        observations += accidental_law(cfg, [cfg.seed, *EXTRA_SEEDS], 5.0).observations
    law = Law("accidentals", observations)
    assert len(law.observations) == 6 * (3 + 6) * 2
    assert abs(law.pooled_z) < 3, str(law)


def test_accidentals_of_a_noisy_link():
    # 2e5 dark counts per detector: about 99 accidentals in a 2 s window and
    # 2,600 counts in the sidebands, so each acquisition resolves its own
    for cfg, pair_ids in ((preset_inner(), (0, 1)), (preset_outer(), (3, 4))):
        noisy = replace(cfg, link=replace(cfg.link, dark_rate_cps=2e5))
        law = accidental_law(noisy, [cfg.seed], 2.0, pair_ids)
        assert len(law.observations) == 4
        assert all(90 < o.expected < 110 and o.sigma < 2 for o in law.observations), str(law)
        assert abs(law.worst.z) < 3 and abs(law.pooled_z) < 3, str(law)


def test_drift_steps_of_the_stability_preset():
    # criterion 8's 24 h of 30 min slots, from the slot starts as ``run_stability``
    # takes them: 47 increments per seed, each N(0, rate**2 * 0.5 h) where no fold
    # touched it; the chi-square of all 282 lies inside its two 0.05% tails
    cfg = preset_stability()
    hours = [k * 30.0 * 60.0 / 3600.0 for k in range(48)]
    seeds = [cfg.seed, *EXTRA_SEEDS]
    law = drift_step_law(cfg, seeds, hours)
    n = len(law.observations)
    assert n == 6 * 47
    lo, hi = chi2.ppf([0.0005, 0.9995], n)
    z = (law.chi2 - n) / (2 * n) ** 0.5
    assert lo < law.chi2 < hi, f"{law}; chi2 {law.chi2:.1f} of {n} degrees, z {z:+.2f}"
    # the run's offsets are that walk reflected at the preset's walls
    bound = cfg.drift.max_offset_deg
    for seed in seeds:
        walk = apply_polarization_drift(hours, cfg.drift.rate_deg_per_hour, seed, UNFOLDED_DEG)
        offsets = apply_polarization_drift(hours, cfg.drift.rate_deg_per_hour, seed, bound)
        assert offsets.tolist() == pytest.approx([reflect_oracle(w, bound) for w in walk], abs=1e-9)

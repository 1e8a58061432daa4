"""The statistical laws of ``laws.py`` over seeds, presets and bases."""

from dataclasses import replace

from mcfqkd.config import preset_inner, preset_outer
from laws import Law, accidental_law

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

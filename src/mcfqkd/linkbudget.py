"""Analytic key rate versus fiber length, with accidental-driven QBER growth.

Starting from a measured 411 m baseline, every extra kilometer attenuates
each arm by the per-core fiber loss: true coincidences scale with the square
of the extra transmission, photon singles linearly, dark counts not at all.
Accidentals follow the singles product times the coincidence window and pull
the QBER toward 0.5, which is what finally kills the key rate at long
distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .qkdmath import DEFAULT_EC_EFFICIENCY, KeyRateInputs, secret_key_rate

__all__ = [
    "LinkModel",
    "LengthPoint",
    "NoPositiveRateError",
    "keyrate_at_length",
    "sweep_lengths",
    "max_positive_length",
    "model_from_config",
]

_SEARCH_CEILING_KM = 1.0e5

#: detectors behind each arm's analyzer (transmitted and reflected port)
DETECTORS_PER_ARM = 2


class NoPositiveRateError(ValueError):
    """The key rate is not positive at the reference length."""


@dataclass(frozen=True)
class LinkModel:
    """Per-pair link baseline plus the noise terms that scale with length.

    Rates are per second at the reference length.  ``q_int_*`` is the
    intrinsic (accidental-free) QBER; ``s_photon`` the photon-only singles
    rate of each arm, which both arms share because both cross the same
    fiber; dark counts are per detector and each arm carries
    ``DETECTORS_PER_ARM`` of them.
    """

    c_true_hv: float
    c_true_da: float
    q_int_hv: float
    q_int_da: float
    s_photon: float
    dark_rate_cps: float
    window_ps: float
    pairs_in_ring: int
    reference_length_km: float = 0.411
    fiber_loss_db_per_km: float = 0.2
    ec_efficiency: float = DEFAULT_EC_EFFICIENCY

    def __post_init__(self) -> None:
        if min(self.c_true_hv, self.c_true_da) < 0:
            raise ValueError("true coincidence rates must be >= 0")
        for name in ("q_int_hv", "q_int_da"):
            q = getattr(self, name)
            if not 0.0 <= q <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {q}")
        if self.s_photon < 0 or self.dark_rate_cps < 0:
            raise ValueError("singles and dark rates must be >= 0")
        if max(self.c_true_hv, self.c_true_da) > self.s_photon + 1e-9:
            raise ValueError("true coincidences cannot exceed the arm singles")
        if self.window_ps <= 0 or self.pairs_in_ring < 1:
            raise ValueError("window must be > 0 and pairs_in_ring >= 1")
        if self.fiber_loss_db_per_km < 0 or self.reference_length_km < 0:
            raise ValueError("losses and lengths must be >= 0")

    @classmethod
    def from_reference(
        cls,
        *,
        c_meas_hv: float,
        c_meas_da: float,
        q_meas_hv: float,
        q_meas_da: float,
        arm_loss_db: float,
        dark_rate_cps: float,
        window_ps: float,
        pairs_in_ring: int,
        reference_length_km: float = 0.411,
        fiber_loss_db_per_km: float = 0.2,
        ec_efficiency: float = DEFAULT_EC_EFFICIENCY,
    ) -> "LinkModel":
        """Invert measured baseline rates into the intrinsic model.

        The measured coincidence rate contains accidentals, and the measured
        QBER contains their random-half contribution; both are removed here
        so that evaluating the model back at the reference length reproduces
        the measured numbers exactly.  The arm's photon singles follow from
        the true coincidence rate and the total arm loss.
        """
        t_arm = 10.0 ** (-arm_loss_db / 10.0)
        dark_arm = DETECTORS_PER_ARM * dark_rate_cps
        window_s = window_ps * 1e-12
        mean_true = 0.5 * (c_meas_hv + c_meas_da)

        # singles are basis independent; solve against the mean measured rate
        s_photon = mean_true / t_arm
        for _ in range(60):  # fixed point: subtract accidentals, re-derive
            acc = (s_photon + dark_arm) ** 2 * window_s
            s_photon = max(mean_true - acc, 0.0) / t_arm
        acc = (s_photon + dark_arm) ** 2 * window_s

        def invert(c_meas: float, q_meas: float) -> tuple[float, float]:
            c_true = c_meas - acc
            if c_true <= 0:
                raise ValueError(
                    "accidentals exceed the measured coincidence rate at reference"
                )
            q_int = (q_meas * c_meas - 0.5 * acc) / c_true
            if q_int < 0:
                q_int = 0.0
            if q_int > 0.5:
                raise ValueError("intrinsic QBER above 0.5 after accidental removal")
            return c_true, q_int

        c_true_hv, q_int_hv = invert(c_meas_hv, q_meas_hv)
        c_true_da, q_int_da = invert(c_meas_da, q_meas_da)
        return cls(
            c_true_hv=c_true_hv,
            c_true_da=c_true_da,
            q_int_hv=q_int_hv,
            q_int_da=q_int_da,
            s_photon=s_photon,
            dark_rate_cps=dark_rate_cps,
            window_ps=window_ps,
            pairs_in_ring=pairs_in_ring,
            reference_length_km=reference_length_km,
            fiber_loss_db_per_km=fiber_loss_db_per_km,
            ec_efficiency=ec_efficiency,
        )


@dataclass(frozen=True)
class LengthPoint:
    length_km: float
    coin_rate_cps: float  # measured (true + accidental) per basis, mean of HV/DA
    qber: float  # mean of the two bases
    skr_pair_bits_s: float  # raw per-pair rate, may be negative
    skr_ring_bits_s: float  # pairs * max(0, per-pair)


def keyrate_at_length(model: LinkModel, length_km: float) -> LengthPoint:
    """Evaluate the link model at a fiber length.

    Raises:
        ValueError: for negative lengths.
    """
    if length_km < 0:
        raise ValueError("length must be >= 0")
    u = 10.0 ** (
        -model.fiber_loss_db_per_km * (length_km - model.reference_length_km) / 10.0
    )
    singles = model.s_photon * u + DETECTORS_PER_ARM * model.dark_rate_cps
    accidentals = singles * singles * model.window_ps * 1e-12

    def basis(c_true_ref: float, q_int: float) -> tuple[float, float]:
        c_true = c_true_ref * u * u
        c_meas = c_true + accidentals
        if c_meas <= 0:
            return 0.0, 0.5
        q = (q_int * c_true + 0.5 * accidentals) / c_meas
        return c_meas, min(q, 0.5)

    c_hv, q_hv = basis(model.c_true_hv, model.q_int_hv)
    c_da, q_da = basis(model.c_true_da, model.q_int_da)
    skr = secret_key_rate(
        KeyRateInputs(c_hv, c_da, q_hv, q_da, ec_efficiency=model.ec_efficiency)
    )
    return LengthPoint(
        length_km=length_km,
        coin_rate_cps=0.5 * (c_hv + c_da),
        qber=0.5 * (q_hv + q_da),
        skr_pair_bits_s=skr,
        skr_ring_bits_s=model.pairs_in_ring * max(0.0, skr),
    )


def sweep_lengths(model: LinkModel, lmax_km: float, step_km: float) -> List[LengthPoint]:
    """Evaluate the model on the grid [0, lmax] with the given step."""
    if not 0 < step_km < math.inf:
        raise ValueError(f"step_km must be finite and > 0, got {step_km}")
    if not model.reference_length_km <= lmax_km < math.inf:
        raise ValueError(
            f"lmax_km must be finite and at least the reference length "
            f"{model.reference_length_km} km, got {lmax_km}"
        )
    points = []
    n = int(math.floor(lmax_km / step_km + 1e-9))
    for i in range(n + 1):
        points.append(keyrate_at_length(model, min(i * step_km, lmax_km)))
    if points[-1].length_km < lmax_km:
        points.append(keyrate_at_length(model, lmax_km))
    return points


def model_from_config(cfg) -> LinkModel:
    """Link model whose baseline is a config's expected measured rates.

    The per-pair coincidence rates and QBER follow analytically from the
    configuration's calibration (source rate, coupling, window capture);
    the arm singles follow from the configured total ring loss split evenly
    between the two arms, which is what makes the accidental floor realistic
    even though the simulator folds loss into its effective pair rate.
    """
    from .config import selected_pairs, window_capture_fraction

    pairs = selected_pairs(cfg)
    eta = window_capture_fraction(
        cfg.analysis.window_ps, cfg.link.jitter_sigma_ps, cfg.analysis.window_mode
    )
    keep = (1.0 - cfg.link.crosstalk_prob) ** 2
    mean_coupling = sum(p.coupling_prob for p in pairs) / len(pairs)
    c_hv = cfg.source.pair_rate * mean_coupling * cfg.link.transmission**2 * eta * keep
    c_hv *= cfg.schedule.rate_scales.get("HV", 1.0)
    c_da = c_hv * cfg.schedule.rate_scales.get("DA", 1.0)
    q_int = (1.0 - cfg.source.visibility) / 2.0
    return LinkModel.from_reference(
        c_meas_hv=c_hv,
        c_meas_da=c_da,
        q_meas_hv=q_int,
        q_meas_da=q_int,
        arm_loss_db=cfg.linkbudget.ring_loss_db / 2.0,
        dark_rate_cps=cfg.link.dark_rate_cps,
        window_ps=cfg.analysis.window_ps,
        pairs_in_ring=len(pairs),
        reference_length_km=cfg.linkbudget.reference_length_km,
        fiber_loss_db_per_km=cfg.link.fiber_loss_db_per_km
        if cfg.link.fiber_loss_db_per_km > 0
        else 0.2,
        ec_efficiency=cfg.keyrate.ec_efficiency,
    )


def max_positive_length(model: LinkModel, tolerance_km: float = 0.1) -> float:
    """Longest fiber with a positive key rate, by bisection to 0.1 km.

    Returns ``math.inf`` when the rate never crosses zero (no noise floor).

    Raises:
        NoPositiveRateError: if the rate is not positive at the reference
            length already.
    """
    l_ref = model.reference_length_km
    if keyrate_at_length(model, l_ref).skr_pair_bits_s <= 0:
        raise NoPositiveRateError("key rate is not positive at the reference length")

    hi = max(2.0 * l_ref, 1.0)
    while True:
        point = keyrate_at_length(model, hi)
        if point.skr_pair_bits_s <= 0:
            break
        hi *= 2.0
        if hi > _SEARCH_CEILING_KM:
            return math.inf
    if point.skr_pair_bits_s == 0.0 and point.coin_rate_cps == 0.0:
        # the transmission underflowed before the rate ever went negative:
        # there is no noise floor, the key rate stays positive at any length
        return math.inf

    # validate the bisection assumptions on the bracket: the clamped rate
    # decreases monotonically and, once the rate goes non-positive, it never
    # recovers (the raw rate legitimately creeps back toward zero from below
    # as the accidental floor fades, so only the sign must be stable there)
    grid = [l_ref + (hi - l_ref) * i / 64 for i in range(65)]
    rates = [keyrate_at_length(model, l).skr_pair_bits_s for l in grid]
    crossed = False
    for prev, nxt in zip(rates, rates[1:]):
        if max(0.0, nxt) > max(0.0, prev) + max(1e-9, 1e-12 * abs(prev)):
            raise RuntimeError("key rate is not monotone on the bisection bracket")
        if crossed and nxt > 0.0:
            raise RuntimeError("key rate recrosses zero on the bisection bracket")
        crossed = crossed or nxt <= 0.0

    lo = l_ref
    while hi - lo > tolerance_km:
        mid = 0.5 * (lo + hi)
        if keyrate_at_length(model, mid).skr_pair_bits_s > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .qkdmath import DEFAULT_EC_EFFICIENCY, KeyRateInputs, check_ec_efficiency, secret_key_rate

__all__ = [
    "LinkModel",
    "LengthPoint",
    "LengthCurve",
    "NoPositiveRateError",
    "keyrate_at_length",
    "sweep_lengths",
    "max_positive_length",
    "model_from_config",
]

_SEARCH_CEILING_KM = 1.0e5
#: bisection steps evaluated together, ``2**levels - 1`` lengths a call
_BISECTION_LEVELS = 6

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
        check_ec_efficiency(self.ec_efficiency)

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


@dataclass(eq=False)
class LengthCurve(Sequence):
    """The model on a grid of lengths: one float64 array per ``LengthPoint``
    field, of the same name.  It is also the sequence of the grid's
    ``LengthPoint``s, each built only when indexed or iterated."""

    length_km: np.ndarray
    coin_rate_cps: np.ndarray
    qber: np.ndarray
    skr_pair_bits_s: np.ndarray
    skr_ring_bits_s: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five arrays, in the order of ``LengthPoint``'s fields."""
        return (
            self.length_km, self.coin_rate_cps, self.qber, self.skr_pair_bits_s, self.skr_ring_bits_s
        )

    def __len__(self) -> int:
        return self.length_km.size

    def __getitem__(self, i: int) -> LengthPoint:
        return LengthPoint(*[column.item(i) for column in self.columns()])

    def __iter__(self):
        return map(LengthPoint, *(column.tolist() for column in self.columns()))


def _curve(model: LinkModel, lengths) -> LengthCurve:
    """The model at each of ``lengths``, in one evaluation of their array.

    numpy does each length's arithmetic in the scalar order, and the power
    and, in ``binary_entropy``, the logarithms are libm's, one call per
    element: ``np.float_power`` calls libm's ``pow`` element by element, so
    it gives ``math.pow``'s bits, where ``np.power``'s vectorized loop
    differs from libm in the last bit on some arguments, as numpy's own
    logarithms do.  So a point's bits do not depend on the other lengths
    evaluated with it.

    Raises:
        ValueError: where a length's transmission relative to the reference
            overflows a float, naming the length and the model's terms.
    """
    x = np.asarray(lengths, dtype=float)
    exponent = -model.fiber_loss_db_per_km * (x - model.reference_length_km) / 10.0
    with np.errstate(over="ignore"):
        u = np.float_power(10.0, exponent)
    if (np.isinf(u) & np.isfinite(exponent)).any():  # where math.pow raises OverflowError
        raise ValueError(
            f"transmission overflows at length_km {float(x[np.nanargmax(exponent)])}: "
            f"reference_length_km {model.reference_length_km}, "
            f"fiber_loss_db_per_km {model.fiber_loss_db_per_km}"
        ) from None
    singles = model.s_photon * u + DETECTORS_PER_ARM * model.dark_rate_cps
    accidentals = singles * singles * model.window_ps * 1e-12

    def basis(c_true_ref: float, q_int: float) -> tuple[np.ndarray, np.ndarray]:
        c_true = c_true_ref * u * u
        c_meas = c_true + accidentals
        errors = q_int * c_true + 0.5 * accidentals
        # QBER 0.5 where no coincidence is left (no darks, the transmission underflowed)
        q = np.divide(errors, c_meas, out=np.full(x.size, 0.5), where=c_meas > 0)
        return c_meas, np.minimum(q, 0.5)

    c_hv, q_hv = basis(model.c_true_hv, model.q_int_hv)
    c_da, q_da = basis(model.c_true_da, model.q_int_da)
    skr = secret_key_rate(
        KeyRateInputs(c_hv, c_da, q_hv, q_da, ec_efficiency=model.ec_efficiency)
    )
    ring = model.pairs_in_ring * np.where(skr > 0.0, skr, 0.0)
    return LengthCurve(x, 0.5 * (c_hv + c_da), 0.5 * (q_hv + q_da), skr, ring)


def keyrate_at_length(model: LinkModel, length_km: float) -> LengthPoint:
    """Evaluate the link model at a fiber length.

    Raises:
        ValueError: for a negative or NaN length, or one whose transmission
            overflows (a reference length far beyond it).
    """
    if not length_km >= 0:
        raise ValueError(f"length_km must be >= 0, got {length_km}")
    return _curve(model, [length_km])[0]


def sweep_lengths(model: LinkModel, lmax_km: float, step_km: float) -> LengthCurve:
    """Evaluate the model on the grid [0, lmax] with the given step.

    A length is the float ``min(i * step_km, lmax_km)``; ``lmax_km`` is
    appended when the grid falls short of it.

    Raises:
        ValueError: for a step or ``lmax_km`` out of range, or a grid too
            large to allocate.
    """
    if not 0 < step_km < math.inf:
        raise ValueError(f"step_km must be finite and > 0, got {step_km}")
    if not model.reference_length_km <= lmax_km < math.inf:
        raise ValueError(
            f"lmax_km must be finite and at least the reference length "
            f"{model.reference_length_km} km, got {lmax_km}"
        )
    if not lmax_km / step_km < math.inf:  # each finite, the ratio not
        raise ValueError(f"grid count not finite: lmax_km {lmax_km}, step_km {step_km}")
    n = int(math.floor(lmax_km / step_km + 1e-9))
    try:
        lengths = np.minimum(np.arange(n + 1) * step_km, lmax_km)
    except MemoryError:
        raise ValueError(
            f"grid of {n + 1} lengths cannot be allocated: lmax_km {lmax_km}, step_km {step_km}"
        ) from None
    if lengths[-1] < lmax_km:
        lengths = np.append(lengths, lmax_km)
    return _curve(model, lengths)


def model_from_config(cfg) -> LinkModel:
    """Link model whose baseline is a config's expected measured rates.

    The per-pair coincidence rates and QBER follow analytically from the
    configuration's calibration (source rate, coupling, window capture) at
    its reference length, the configured ``link.fiber_length_km``; the arm
    singles follow from the configured total ring loss split evenly
    between the two arms, which is what makes the accidental floor realistic
    even though the simulator folds loss into its effective pair rate.
    """
    from .config import selected_pairs, window_capture_fraction

    pairs = selected_pairs(cfg)
    eta = window_capture_fraction(cfg.analysis.window_ps, cfg.link.jitter_sigma_ps)
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
        reference_length_km=cfg.link.fiber_length_km,
        fiber_loss_db_per_km=cfg.link.fiber_loss_db_per_km,
        ec_efficiency=cfg.keyrate.ec_efficiency,
    )


def max_positive_length(model: LinkModel, tolerance_km: float = 0.1) -> float:
    """Longest fiber with a positive key rate, by bisection to ``tolerance_km``.

    The bisection evaluates the midpoints its next ``_BISECTION_LEVELS``
    steps can reach in one call, and ends on the float that evaluating one
    midpoint at a time ends on.  Returns ``math.inf`` when the rate never
    crosses zero (no noise floor).

    Raises:
        ValueError: unless ``tolerance_km`` is finite and > 0.
        NoPositiveRateError: if the rate is not positive at the reference
            length already.
    """
    if not 0 < tolerance_km < math.inf:
        raise ValueError(f"tolerance_km must be finite and > 0, got {tolerance_km}")
    l_ref = model.reference_length_km
    if keyrate_at_length(model, l_ref).skr_pair_bits_s <= 0:
        raise NoPositiveRateError("key rate is not positive at the reference length")

    # the doubling bracket in one evaluation, each length up to the ceiling
    # (the first even above it): it ends at the first non-positive rate
    doublings = [max(2.0 * l_ref, 1.0)]
    while 2.0 * doublings[-1] <= _SEARCH_CEILING_KM:
        doublings.append(2.0 * doublings[-1])
    bracket = _curve(model, doublings)
    ends = np.flatnonzero(bracket.skr_pair_bits_s <= 0)
    if not ends.size:
        return math.inf
    point = bracket[ends[0]]
    hi = point.length_km
    if point.skr_pair_bits_s == 0.0 and point.coin_rate_cps == 0.0:
        # the transmission underflowed before the rate ever went negative:
        # there is no noise floor, the key rate stays positive at any length
        return math.inf

    # validate the bisection assumptions on the bracket: the clamped rate
    # decreases monotonically and, once the rate goes non-positive, it never
    # recovers (the raw rate legitimately creeps back toward zero from below
    # as the accidental floor fades, so only the sign must be stable there)
    grid = [l_ref + (hi - l_ref) * i / 64 for i in range(65)]
    rates = _curve(model, grid).skr_pair_bits_s.tolist()
    crossed = False
    for prev, nxt in zip(rates, rates[1:]):
        if max(0.0, nxt) > max(0.0, prev) + max(1e-9, 1e-12 * abs(prev)):
            raise RuntimeError("key rate is not monotone on the bisection bracket")
        if crossed and nxt > 0.0:
            raise RuntimeError("key rate recrosses zero on the bisection bracket")
        crossed = crossed or nxt <= 0.0

    lo = l_ref
    mid = 0.5 * (lo + hi)
    level = _BISECTION_LEVELS
    while hi - lo > tolerance_km and lo < mid < hi:  # the bracket may shrink to adjacent floats
        if level == _BISECTION_LEVELS:
            # the midpoints the next _BISECTION_LEVELS steps can reach, in one
            # evaluation: grid[i] is mid, and a step moves i by half its last move
            grid = _midpoints(lo, hi)
            positive = (_curve(model, grid).skr_pair_bits_s > 0).tolist()
            level, i, step = 0, len(grid) // 2, (len(grid) + 1) // 2
        level, step = level + 1, step // 2
        if positive[i]:
            lo, i = mid, i + step
        else:
            hi, i = mid, i - step
        mid = 0.5 * (lo + hi)
    return mid


def _midpoints(lo: float, hi: float, levels: int = _BISECTION_LEVELS) -> list:
    """The ``2**levels - 1`` midpoints that ``levels`` bisection steps on
    [lo, hi] can reach, in order of length, each computed as the step does."""
    if not levels:
        return []
    mid = 0.5 * (lo + hi)
    return [*_midpoints(lo, mid, levels - 1), mid, *_midpoints(mid, hi, levels - 1)]

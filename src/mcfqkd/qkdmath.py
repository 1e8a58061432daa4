"""Key-rate arithmetic: binary entropy, visibility, QBER and the sifted secret key rate.

All functions are pure and stateless. The count-based functions are
duck-typed on purpose: pass ``fractions.Fraction`` counts (or request
``exact=True``) and the arithmetic stays exact, which makes the identity
``(1 - V) / 2 == error_counts / total_counts`` hold bit-for-bit instead of
merely to rounding error.  ``binary_entropy`` and ``KeyRateInputs`` (so
``secret_key_rate``) also take float64 arrays, element by element, each
element giving the bits its own float gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "DEFAULT_EC_EFFICIENCY",
    "DomainError",
    "UndefinedVisibilityError",
    "BasisCounts",
    "KeyRateInputs",
    "check_ec_efficiency",
    "binary_entropy",
    "visibility_from_counts",
    "qber_from_visibility",
    "secret_key_rate",
    "positive_qber_threshold",
]

#: Error-correction efficiency multiplier f applied on top of the Shannon
#: limit; the (1 + f) entropy factor then charges H2(Q) once for privacy
#: amplification and f * H2(Q) for error-correction leakage.
DEFAULT_EC_EFFICIENCY = 1.2

_LN2 = math.log(2.0)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of a formula."""


class UndefinedVisibilityError(ValueError):
    """Visibility requested for a tally whose total count is zero."""


@dataclass(frozen=True)
class BasisCounts:
    """Coincidence counts for the four outcome combinations in one basis pair.

    ``c_pp`` counts both-transmitted events (e.g. HH), ``c_pm`` transmitted/
    reflected (HV), ``c_mp`` reflected/transmitted (VH) and ``c_mm`` both
    reflected (VV).
    """

    c_pp: int
    c_pm: int
    c_mp: int
    c_mm: int

    def __post_init__(self) -> None:
        for name in ("c_pp", "c_pm", "c_mp", "c_mm"):
            value = getattr(self, name)
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")

    @property
    def total(self) -> int:
        return self.c_pp + self.c_pm + self.c_mp + self.c_mm

    @property
    def error_counts(self) -> int:
        """Counts in the anti-correlated outcome combinations."""
        return self.c_pm + self.c_mp


@dataclass(frozen=True)
class KeyRateInputs:
    """Per-basis coincidence rates and QBERs feeding the key-rate formula.

    Rates are in coincidences per second; the resulting key rate is then in
    bits per second.  ``ec_efficiency`` is the error-correction efficiency f.
    The rates and QBERs may be float64 arrays of one shape, one evaluation
    per element; a check names the field and its first element out of range.
    """

    coin_rate_hv: float
    coin_rate_da: float
    qber_hv: float
    qber_da: float
    ec_efficiency: float = DEFAULT_EC_EFFICIENCY

    def __post_init__(self) -> None:
        for name in ("coin_rate_hv", "coin_rate_da"):
            bad = _first_outside(getattr(self, name), 0, math.inf)
            if bad is not None:
                raise DomainError(f"{name} must be >= 0, got {bad}")
        for name in ("qber_hv", "qber_da"):
            bad = _first_outside(getattr(self, name), 0, 0.5)
            if bad is not None:
                raise DomainError(f"{name} must be in [0, 0.5], got {bad}")
        check_ec_efficiency(self.ec_efficiency)


def check_ec_efficiency(f: float) -> None:
    """Refuse an error-correction efficiency that is not finite and >= 0, NaN too."""
    if not 0 <= f < math.inf:
        raise DomainError(f"ec_efficiency must be finite and >= 0, got {f}")


def _first_outside(values, lo, hi):
    """The first element of ``values`` (a number or an array) outside
    [lo, hi], NaN included, or None."""
    flat = np.ravel(values)
    inside = (lo <= flat) & (flat <= hi)
    return None if inside.all() else flat[~inside][0]


def binary_entropy(x):
    """Binary Shannon entropy H2(x) in bits, with H2(0) = H2(1) = 0.

    Uses ``log1p`` for the (1 - x) term so the result stays accurate to a few
    ulp over the whole domain, including x close to 0.  An array gives an
    array: numpy does the arithmetic, while ``log2`` and ``log1p`` are libm's
    (``math``), one call per element, since numpy's own differ from libm in
    the last bit on some arguments.

    Raises:
        DomainError: if x, or an element of it, is outside [0, 1].
    """
    bad = _first_outside(x, 0, 1)
    if bad is not None:
        raise DomainError(f"entropy argument must be in [0, 1], got {bad}")
    xs = np.asarray(x, dtype=float)
    inner = (xs != 0.0) & (xs != 1.0)
    whole = inner.all()
    v = xs.ravel() if whole else xs[inner]  # one dimension, contiguous
    log2 = np.fromiter(map(math.log2, memoryview(v)), float, v.size)
    log1p = np.fromiter(map(math.log1p, memoryview(-v)), float, v.size)
    terms = -(v * log2 + (1.0 - v) * (log1p / _LN2))
    if whole:
        h = terms.reshape(xs.shape)
    else:
        h = np.zeros_like(xs)
        h[inner] = terms
    return h if h.ndim else float(h)


def visibility_from_counts(counts: BasisCounts, *, exact: bool = False):
    """Polarization visibility (c_pp + c_mm - c_pm - c_mp) / total.

    Args:
        counts: the four coincidence counts of one basis setting.
        exact: return a ``fractions.Fraction`` instead of a float, keeping
            the arithmetic exact.

    Raises:
        UndefinedVisibilityError: if the total count is zero.
    """
    total = counts.total
    if total == 0:
        raise UndefinedVisibilityError("visibility undefined for zero total counts")
    signed = counts.c_pp + counts.c_mm - counts.c_pm - counts.c_mp
    if exact:
        return Fraction(signed, total)
    return signed / total


def qber_from_visibility(v):
    """QBER from visibility, Q = (1 - V) / 2.

    Duck-typed: a ``Fraction`` visibility yields an exact ``Fraction`` QBER,
    so composing with ``visibility_from_counts(..., exact=True)`` reproduces
    error_counts / total_counts exactly.

    Raises:
        DomainError: if v is outside [-1, 1].
    """
    if not -1 <= v <= 1:
        raise DomainError(f"visibility must be in [-1, 1], got {v}")
    return (1 - v) / 2


def secret_key_rate(inputs: KeyRateInputs) -> float:
    """Sifted secret key rate in bits per second.

    R = 1/2 C_HV (1 - (1+f) H2(Q_HV)) + 1/2 C_DA (1 - (1+f) H2(Q_DA))

    The raw value is returned; it is negative when the QBER is too high for
    a secure key.  Clamping to zero is left to the reporting layer so that
    root finding on the zero crossing stays possible.
    """
    leak = 1.0 + inputs.ec_efficiency
    term_hv = inputs.coin_rate_hv * (1.0 - leak * binary_entropy(inputs.qber_hv))
    term_da = inputs.coin_rate_da * (1.0 - leak * binary_entropy(inputs.qber_da))
    return 0.5 * (term_hv + term_da)


def positive_qber_threshold(ec_efficiency: float = DEFAULT_EC_EFFICIENCY) -> float:
    """QBER at which the per-basis factor 1 - (1+f) H2(Q) crosses zero.

    Below the returned value a basis contributes positively to the key rate;
    above it the contribution is negative.  Solved by bisection on [0, 0.5],
    which stops once the bracket stops shrinking.
    """
    check_ec_efficiency(ec_efficiency)
    target = 1.0 / (1.0 + ec_efficiency)
    if target >= 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    mid = 0.25
    while lo < mid < hi:  # until the bracket holds two adjacent floats
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid

"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with different machinery than the
package under test: arbitrary-precision ``decimal`` arithmetic for the
formulas, exact rationals for count ratios, O(n^2) scans for the stream
matching, and scalar Python floats for the link-budget curve the package
evaluates on arrays.  None of it imports from ``mcfqkd``.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

ORACLE_PRECISION = 25

with localcontext() as _ctx:
    _ctx.prec = ORACLE_PRECISION
    #: ln 2 at the oracle precision, the same value every call used to compute
    _LN2 = Decimal(2).ln()


def entropy_oracle(x: float) -> Decimal:
    """Binary entropy evaluated in 25-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = ORACLE_PRECISION
        xd = Decimal(x)  # exact binary-to-decimal conversion
        if xd == 0 or xd == 1:
            return Decimal(0)
        one = Decimal(1)
        return -(xd * xd.ln() + (one - xd) * (one - xd).ln()) / _LN2


def key_rate_oracle(c_hv: float, c_da: float, q_hv: float, q_da: float, f: float) -> Decimal:
    """Secret key rate evaluated in 25-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = ORACLE_PRECISION
        one = Decimal(1)
        leak = one + Decimal(f)
        term_hv = Decimal(c_hv) * (one - leak * entropy_oracle(q_hv))
        term_da = Decimal(c_da) * (one - leak * entropy_oracle(q_da))
        return (term_hv + term_da) / 2


def visibility_oracle(c_pp: int, c_pm: int, c_mp: int, c_mm: int) -> Fraction:
    """Exact rational visibility."""
    total = c_pp + c_pm + c_mp + c_mm
    return Fraction(c_pp + c_mm - c_pm - c_mp, total)


def qber_threshold_oracle(f: float, iterations: int = 80) -> Decimal:
    """Root of 1 - (1+f) H2(Q) = 0 found by bisection on the decimal oracle."""
    with localcontext() as ctx:
        ctx.prec = ORACLE_PRECISION
        target = Decimal(1) / (Decimal(1) + Decimal(f))
        lo, hi = Decimal(0), Decimal("0.5")
        for _ in range(iterations):
            mid = (lo + hi) / 2
            if entropy_oracle(float(mid)) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def born_rule_probs(theta_a_deg: float, theta_b_deg: float, visibility: float):
    """Joint outcome probabilities from the two-qubit density matrix.

    Builds the Werner-type state v |phi+><phi+| + (1 - v) I/4 explicitly and
    applies Born's rule with projective polarizer measurements at the given
    analyzer angles.  Returns (P++, P+-, P-+, P--).
    """
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = visibility * np.outer(phi_plus, phi_plus) + (1.0 - visibility) * np.eye(4) / 4.0

    def projector(theta_deg, transmitted):
        t = np.radians(theta_deg)
        ket = np.array([np.cos(t), np.sin(t)]) if transmitted else np.array(
            [-np.sin(t), np.cos(t)]
        )
        return np.outer(ket, ket)

    out = []
    for a_plus in (True, False):
        for b_plus in (True, False):
            meas = np.kron(projector(theta_a_deg, a_plus), projector(theta_b_deg, b_plus))
            out.append(float(np.trace(rho @ meas).real))
    return tuple(out)


def greedy_match_oracle(times_a, times_b, window_ps: int, delay_ps: int = 0):
    """Greedy one-to-one matching by direct scan over all candidates.

    For each tag of stream A, in time order, take the earliest still-unused
    tag of stream B with ``|t_b - t_a - delay| <= window / 2`` (the factor-2
    comparison keeps the half-window test exact for integer times).
    """
    a = np.asarray(times_a, dtype=np.int64)
    b = np.asarray(times_b, dtype=np.int64)
    used = np.zeros(len(b), dtype=bool)
    matches = []
    for i in range(len(a)):
        inside = 2 * np.abs(b - delay_ps - a[i]) <= window_ps
        candidates = np.flatnonzero(inside & ~used)
        if candidates.size:
            j = int(candidates[0])
            used[j] = True
            matches.append((i, j))
    return matches


def histogram_oracle(times_a, times_b, bin_width_ps: int, range_ps: int) -> np.ndarray:
    """Delay histogram of all pairwise t_b - t_a within +-range, O(n^2)."""
    a = np.asarray(times_a, dtype=np.int64)
    b = np.asarray(times_b, dtype=np.int64)
    n_bins = 2 * range_ps // bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return counts
    delays = (b[None, :] - a[:, None]).ravel()
    delays = delays[np.abs(delays) <= range_ps]
    idx = np.minimum((delays + range_ps) // bin_width_ps, n_bins - 1)
    np.add.at(counts, idx, 1)
    return counts


def sideband_oracle(bins, bin_width_ps: int, range_ps: int, delay_ps: int, gap_ps: int):
    """``(total, covered)``: the count of the histogram bins none of whose integer
    delays lies nearer than ``gap_ps`` to ``delay_ps``, and how many integer delays
    they cover; ``None`` when no bin is that far."""
    total = covered = 0
    for i, count in enumerate(bins):
        lo = -range_ps + i * bin_width_ps
        hi = range_ps if i == len(bins) - 1 else lo + bin_width_ps - 1
        nearest = 0 if lo <= delay_ps <= hi else min(abs(lo - delay_ps), abs(hi - delay_ps))
        if nearest >= gap_ps:
            total, covered = total + int(count), covered + hi - lo + 1
    return (total, covered) if covered else None


def reflect_oracle(x: float, bound: float) -> float:
    """``x`` mirrored at +-``bound`` until it lies between them: a walk reflected at
    both walls, one reflection at a time, where the package folds with a modulo."""
    while abs(x) > bound:
        x = (2.0 if x > 0 else -2.0) * bound - x
    return x


def length_grid_oracle(lmax_km: float, step_km: float) -> list:
    """The link-budget grid, one Python float at a time: ``i * step_km`` up
    to ``lmax_km``, which ends the grid whether or not a step lands on it."""
    n = int(math.floor(lmax_km / step_km + 1e-9))
    lengths = [float(min(i * step_km, lmax_km)) for i in range(n + 1)]
    return lengths if lengths[-1] >= lmax_km else lengths + [float(lmax_km)]


def link_point_oracle(model, length_km: float) -> tuple:
    """One point of the link-budget curve, in scalar float arithmetic.

    The per-length expressions written against the model's fields, one
    operation at a time in the order below, with libm's ``pow``, ``log2``
    and ``log1p``; a length with no coincidence at all (no dark counts, the
    transmission underflowed) has QBER 0.5.  Each arm has two detectors.
    Returns ``(length_km, coin_rate_cps, qber, skr_pair_bits_s,
    skr_ring_bits_s)``.
    """
    u = 10.0 ** (-model.fiber_loss_db_per_km * (length_km - model.reference_length_km) / 10.0)
    singles = model.s_photon * u + 2 * model.dark_rate_cps
    accidentals = singles * singles * model.window_ps * 1e-12

    def basis(c_true_ref: float, q_int: float) -> tuple:
        c_true = c_true_ref * u * u
        c_meas = c_true + accidentals
        if c_meas <= 0:
            return 0.0, 0.5
        return c_meas, min((q_int * c_true + 0.5 * accidentals) / c_meas, 0.5)

    def entropy(x: float) -> float:
        if x == 0.0 or x == 1.0:
            return 0.0
        return -(x * math.log2(x) + (1.0 - x) * (math.log1p(-x) / math.log(2.0)))

    c_hv, q_hv = basis(model.c_true_hv, model.q_int_hv)
    c_da, q_da = basis(model.c_true_da, model.q_int_da)
    leak = 1.0 + model.ec_efficiency
    skr = 0.5 * (c_hv * (1.0 - leak * entropy(q_hv)) + c_da * (1.0 - leak * entropy(q_da)))
    return (
        length_km,
        0.5 * (c_hv + c_da),
        0.5 * (q_hv + q_da),
        skr,
        model.pairs_in_ring * max(0.0, skr),
    )


def reach_oracle(model, tolerance_km: float) -> float:
    """The longest length with a positive key rate, one ``link_point_oracle``
    point at a time: the doubling bracket from ``max(2 * reference, 1)`` km,
    doubled while the double stays within 1e5 km, ends at the first
    non-positive rate, and plain bisection from the reference length to that
    end stops once the bracket is no wider than ``tolerance_km`` or holds two
    adjacent floats.  ``math.inf`` where no doubling ends the bracket or the
    transmission underflowed first (no coincidence left, rate 0)."""
    l_ref = model.reference_length_km
    hi = max(2.0 * l_ref, 1.0)
    while True:
        _, coin, _, skr, _ = link_point_oracle(model, hi)
        if skr <= 0:
            break
        if 2.0 * hi > 1.0e5:
            return math.inf
        hi = 2.0 * hi
    if skr == 0.0 and coin == 0.0:
        return math.inf
    lo = l_ref
    mid = 0.5 * (lo + hi)
    while hi - lo > tolerance_km and lo < mid < hi:
        if link_point_oracle(model, mid)[3] > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid

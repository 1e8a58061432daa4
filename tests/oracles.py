"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with different machinery than the
package under test: arbitrary-precision ``decimal`` arithmetic for the
formulas, exact rationals for count ratios, and O(n^2) scans for the stream
matching.  None of it imports from ``mcfqkd``.
"""
from __future__ import annotations

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

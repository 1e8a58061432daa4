"""Unit tests for the key-rate formula module."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from mcfqkd.qkdmath import (
    BasisCounts,
    DomainError,
    KeyRateInputs,
    UndefinedVisibilityError,
    binary_entropy,
    positive_qber_threshold,
    qber_from_visibility,
    secret_key_rate,
    visibility_from_counts,
)
from oracles import entropy_oracle, key_rate_oracle, qber_threshold_oracle


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_limit_convention_at_zero(self):
        assert binary_entropy(0.0) == 0.0

    def test_limit_convention_at_one(self):
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        # frozen from the 30-digit decimal oracle
        assert binary_entropy(0.03) == pytest.approx(0.194392, abs=1e-6)
        assert binary_entropy(0.03) == pytest.approx(0.19439185783157616, rel=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)
        with pytest.raises(DomainError):
            binary_entropy(float("nan"))

    def test_symmetry(self):
        # dyadic grid so that 1 - x is exactly representable
        for i in range(0, 4097):
            x = i / 4096
            a, b = binary_entropy(x), binary_entropy(1.0 - x)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)
        rng = random.Random(7)
        for _ in range(2000):
            x = rng.random()
            assert binary_entropy(x) == pytest.approx(
                binary_entropy(1.0 - x), rel=1e-10, abs=1e-12
            )

    def test_matches_oracle_across_domain(self):
        rng = random.Random(11)
        xs = [rng.random() for _ in range(300)]
        xs += [10.0 ** rng.uniform(-14, -1) for _ in range(300)]
        xs += [1.0 - 10.0 ** rng.uniform(-14, -1) for _ in range(300)]
        for x in xs:
            expected = float(entropy_oracle(x))
            assert binary_entropy(x) == pytest.approx(expected, rel=1e-12)


class TestVisibility:
    def test_perfectly_correlated(self):
        assert visibility_from_counts(BasisCounts(100, 0, 0, 100)) == 1.0

    def test_uncorrelated(self):
        assert visibility_from_counts(BasisCounts(25, 25, 25, 25)) == 0.0

    def test_reference_value(self):
        assert visibility_from_counts(BasisCounts(970, 30, 30, 970)) == pytest.approx(0.94)

    def test_zero_total_rejected(self):
        with pytest.raises(UndefinedVisibilityError):
            visibility_from_counts(BasisCounts(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            BasisCounts(-1, 0, 0, 0)

    def test_exact_mode_returns_fraction(self):
        v = visibility_from_counts(BasisCounts(970, 30, 30, 970), exact=True)
        assert v == Fraction(94, 100)


class TestQber:
    def test_trivial_points(self):
        assert qber_from_visibility(1.0) == 0.0
        assert qber_from_visibility(0.0) == 0.5
        assert qber_from_visibility(0.94) == pytest.approx(0.03)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            qber_from_visibility(1.2)
        with pytest.raises(DomainError):
            qber_from_visibility(-1.2)

    def test_error_fraction_identity_exact(self):
        # Q = (1 - V)/2 equals error/total exactly on the rational path.
        rng = random.Random(23)
        for _ in range(3000):
            total = rng.randint(1, 10_000)
            b = rng.randint(0, total)
            c = rng.randint(0, total - b)
            a = rng.randint(0, total - b - c)
            d = total - a - b - c
            counts = BasisCounts(a, b, c, d)
            q = qber_from_visibility(visibility_from_counts(counts, exact=True))
            assert q == Fraction(counts.error_counts, counts.total)


class TestSecretKeyRate:
    def test_zero_qber_sums_rates(self):
        inputs = KeyRateInputs(1000.0, 1000.0, 0.0, 0.0, ec_efficiency=1.2)
        assert secret_key_rate(inputs) == 1000.0

    def test_reference_positive_rate(self):
        # frozen oracle value for the calibrated per-pair rates
        inputs = KeyRateInputs(7832.0, 7770.0, 0.0272, 0.0272, ec_efficiency=1.2)
        rate = secret_key_rate(inputs)
        assert rate == pytest.approx(4709.0, abs=1.0)
        assert rate == pytest.approx(4709.238162036417, rel=1e-12)

    def test_reference_negative_rate(self):
        inputs = KeyRateInputs(1000.0, 1000.0, 0.12, 0.12, ec_efficiency=1.2)
        rate = secret_key_rate(inputs)
        assert rate == pytest.approx(-164.59390363220156, rel=1e-12)
        assert rate < 0

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            KeyRateInputs(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            KeyRateInputs(1.0, 1.0, 0.6, 0.0)
        with pytest.raises(DomainError):
            KeyRateInputs(1.0, 1.0, 0.1, 0.1, ec_efficiency=-0.5)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -0.5], ids=str)
    def test_bad_efficiency_rejected_by_name(self, f):
        # a NaN passed the old ``< 0`` check, and the key rate came out NaN
        with pytest.raises(DomainError, match=rf"^ec_efficiency must be finite and >= 0, got {f}$"):
            KeyRateInputs(1.0, 1.0, 0.1, 0.1, ec_efficiency=f)

    def test_monotone_in_qber(self):
        rates = [
            secret_key_rate(KeyRateInputs(5000.0, 5000.0, q, q))
            for q in [i * 0.5 / 200 for i in range(201)]
        ]
        for lo, hi in zip(rates, rates[1:]):
            assert hi <= lo

    def test_linear_in_rates(self):
        rng = random.Random(5)
        for _ in range(200):
            c1, c2 = rng.uniform(0, 1e5), rng.uniform(0, 1e5)
            q1, q2 = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
            base = secret_key_rate(KeyRateInputs(c1, c2, q1, q2))
            doubled = secret_key_rate(KeyRateInputs(2 * c1, 2 * c2, q1, q2))
            assert doubled == 2 * base

    def test_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(200):
            c1, c2 = rng.uniform(0, 1e5), rng.uniform(0, 1e5)
            q1, q2 = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
            f = rng.uniform(0, 2)
            got = secret_key_rate(KeyRateInputs(c1, c2, q1, q2, ec_efficiency=f))
            expected = float(key_rate_oracle(c1, c2, q1, q2, f))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


class TestQberThreshold:
    def test_default_efficiency_threshold(self):
        # root of 1 - 2.2 H2(Q); the oracle root is 0.0954935...
        q_star = positive_qber_threshold(1.2)
        assert q_star == pytest.approx(float(qber_threshold_oracle(1.2)), abs=1e-12)
        assert q_star == pytest.approx(0.0963, abs=1e-3)

    def test_unit_efficiency_threshold(self):
        q_star = positive_qber_threshold(1.0)
        assert q_star == pytest.approx(0.110, abs=1e-3)

    def test_sign_change_around_threshold(self):
        q_star = positive_qber_threshold(1.2)
        below = secret_key_rate(KeyRateInputs(1000.0, 1000.0, q_star - 1e-4, q_star - 1e-4))
        above = secret_key_rate(KeyRateInputs(1000.0, 1000.0, q_star + 1e-4, q_star + 1e-4))
        assert below > 0 > above

    def test_negative_efficiency_rejected(self):
        with pytest.raises(DomainError):
            positive_qber_threshold(-0.1)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, -0.5], ids=str)
    def test_bad_efficiency_rejected_by_name(self, f):
        # NaN and inf passed the old ``< 0`` check and gave a threshold of 0.0
        with pytest.raises(DomainError, match=rf"^ec_efficiency must be finite and >= 0, got {f}$"):
            positive_qber_threshold(f)

    @pytest.mark.parametrize(
        "f, threshold",
        [
            (0.5, 0.1739523314093952),
            (1.0, 0.11002786443835955),
            (1.2, 0.09549353849071596),
            (2.0, 0.06149047007872417),
            (10.0, 0.011551119907138328),
            (1e6, 3.8344863106931315e-08),
            (1e42, 6.748784452605309e-45),
        ],
    )
    def test_bisection_floats_pinned(self, f, threshold):
        # captured from the 200-step bisection this one, which stops once
        # the bracket stops shrinking, replaced
        assert positive_qber_threshold(f) == threshold

    def test_bisection_converges_for_a_tiny_threshold(self):
        # f = 1e50 puts the root near 5.7e-53, which 200 halvings of [0, 0.5]
        # do not reach; the result's two neighbours straddle the crossing
        f = 1e50
        q = positive_qber_threshold(f)
        below, above = math.nextafter(q, 0.0), math.nextafter(q, 1.0)
        assert (1.0 + f) * binary_entropy(below) < 1.0 < (1.0 + f) * binary_entropy(above)


def test_entropy_is_concave_on_samples():
    rng = random.Random(99)
    for _ in range(500):
        x, y = sorted((rng.random(), rng.random()))
        mid = 0.5 * (x + y)
        assert binary_entropy(mid) >= 0.5 * (binary_entropy(x) + binary_entropy(y)) - 1e-12


def test_entropy_handles_subnormal_arguments():
    x = 5e-324
    assert 0.0 < binary_entropy(x) < 1e-318
    assert math.isfinite(binary_entropy(x))


class TestArrays:
    """Arrays go element by element, each element as its own float goes."""

    @staticmethod
    def samples():
        rng = random.Random(41)
        xs = [0.0, 0.5, 1.0, 5e-324, 1e-300, 0.03, 1.0 - 2.0**-53]
        xs += [rng.random() for _ in range(500)]
        xs += [10.0 ** rng.uniform(-14, -1) for _ in range(250)]
        xs += [1.0 - 10.0 ** rng.uniform(-14, -1) for _ in range(250)]
        return xs

    def test_entropy_bit_for_bit(self):
        xs = self.samples()
        got = binary_entropy(np.array(xs))
        assert isinstance(got, np.ndarray) and got.shape == (len(xs),)
        assert got.tobytes() == np.array([binary_entropy(x) for x in xs]).tobytes()
        assert got[:3].tolist() == [0.0, 1.0, 0.0]
        # no 0 or 1: every element takes the logarithms, with no mask
        inner = [x for x in xs if x not in (0.0, 1.0)]
        got = binary_entropy(np.array(inner))
        assert got.shape == (len(inner),)
        assert got.tobytes() == np.array([binary_entropy(x) for x in inner]).tobytes()
        # a 2-D array keeps its shape, on either path
        for values, shape in ((xs, (19, 53)), (inner, (15, 67))):
            got = binary_entropy(np.array(values).reshape(shape))
            assert got.shape == shape
            assert got.tobytes() == np.array([binary_entropy(x) for x in values]).tobytes()

    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
    def test_entropy_rejects_one_element_outside(self, bad):
        message = f"entropy argument must be in [0, 1], got {bad}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            binary_entropy(np.array([0.2, bad, 0.3]))

    def test_key_rate_bit_for_bit(self):
        rng = random.Random(43)
        rows = [
            (rng.uniform(0, 1e5), rng.uniform(0, 1e5), rng.uniform(0, 0.5), rng.uniform(0, 0.5))
            for _ in range(500)
        ]
        rows += [(0.0, 0.0, 0.5, 0.5), (1000.0, 1000.0, 0.0, 0.0)]
        got = secret_key_rate(KeyRateInputs(*(np.array(col) for col in zip(*rows)), ec_efficiency=1.2))
        want = [secret_key_rate(KeyRateInputs(*row, ec_efficiency=1.2)) for row in rows]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("coin_rate_hv", -1.0, "coin_rate_hv must be >= 0, got -1.0"),
            ("coin_rate_da", math.nan, "coin_rate_da must be >= 0, got nan"),
            ("qber_hv", 0.6, "qber_hv must be in [0, 0.5], got 0.6"),
            ("qber_da", math.nan, "qber_da must be in [0, 0.5], got nan"),
        ],
    )
    def test_inputs_reject_one_element_and_name_the_field(self, field, bad, message):
        values = {name: np.array([100.0, 200.0, 300.0]) for name in ("coin_rate_hv", "coin_rate_da")}
        values.update(qber_hv=np.array([0.01, 0.02, 0.03]), qber_da=np.array([0.01, 0.02, 0.03]))
        values[field][1] = bad
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            KeyRateInputs(**values)

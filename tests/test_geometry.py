"""Unit tests for the core layout and ring-coupling model."""

import math

import pytest
from scipy.integrate import dblquad

from mcfqkd.geometry import (
    RING_INNER,
    RING_OUTER,
    LayoutError,
    RingCalibration,
    build_layout,
    coupling_probabilities,
    emission_profile_from_temperature,
)


def overlap_oracle(distance, disk_radius, r0, sigma):
    """Adaptive-quadrature overlap fraction, independent of the package."""

    def integrand(phi, rho):
        r = math.hypot(distance + rho * math.cos(phi), rho * math.sin(phi))
        return rho * math.exp(-((r - r0) ** 2) / (2 * sigma**2))

    disk, _ = dblquad(integrand, 0, disk_radius, 0, 2 * math.pi, epsabs=1e-13, epsrel=1e-13)
    total, _ = dblquad(
        lambda phi, rho: rho * math.exp(-((rho - r0) ** 2) / (2 * sigma**2)),
        0,
        max(r0 + 12 * sigma, 12 * sigma),
        0,
        2 * math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return disk / total


class TestBuildLayout:
    def test_core_counts(self):
        layout = build_layout(35.0, 4.0)
        rings = [c.ring for c in layout.cores]
        assert len(layout.cores) == 19
        assert rings.count("center") == 1
        assert rings.count("inner") == 6
        assert rings.count("outer") == 12

    def test_ring_radii(self):
        layout = build_layout(35.0, 4.0)
        inner = {round(c.radius_from_center_um, 9) for c in layout.cores if c.ring == RING_INNER}
        outer = {round(c.radius_from_center_um, 9) for c in layout.cores if c.ring == RING_OUTER}
        assert inner == {35.0}
        assert outer == {round(2 * 35.0, 9), round(math.sqrt(3) * 35.0, 9)}

    def test_exact_point_reflection(self):
        layout = build_layout(35.0, 4.0)
        for pair in layout.pairs:
            a, b = layout.core(pair.core_a), layout.core(pair.core_b)
            assert a.x_um == -b.x_um
            assert a.y_um == -b.y_um

    def test_pair_structure(self):
        layout = build_layout()
        assert len(layout.pairs) == 9
        assert sum(p.ring == RING_INNER for p in layout.pairs) == 3
        assert sum(p.ring == RING_OUTER for p in layout.pairs) == 6
        paired = {p.core_a for p in layout.pairs} | {p.core_b for p in layout.pairs}
        assert 0 not in paired  # the center core is never paired
        assert len(paired) == 18

    def test_overlapping_cores_rejected(self):
        with pytest.raises(LayoutError):
            build_layout(35.0, 20.0)
        with pytest.raises(LayoutError):
            build_layout(10.0, 5.0)
        with pytest.raises(LayoutError):
            build_layout(35.0, 0.0)


class TestEmissionProfile:
    def test_anchor_temperatures(self):
        cal = RingCalibration()
        assert emission_profile_from_temperature(82.5, cal).annulus_radius_um == pytest.approx(
            35.0
        )
        assert emission_profile_from_temperature(82.0, cal).annulus_radius_um == pytest.approx(
            35.0 * (math.sqrt(3) + 2) / 2
        )

    def test_midpoint_interpolation(self):
        cal = RingCalibration()
        mid = emission_profile_from_temperature(82.25, cal).annulus_radius_um
        assert mid == pytest.approx(0.5 * (35.0 + 35.0 * (math.sqrt(3) + 2) / 2))

    def test_radius_decreases_with_temperature(self):
        cal = RingCalibration()
        radii = [
            emission_profile_from_temperature(t, cal).annulus_radius_um
            for t in (81.8, 82.0, 82.3, 82.5, 82.7)
        ]
        assert all(hi > lo for hi, lo in zip(radii, radii[1:]))

    def test_degenerate_calibration_rejected(self):
        with pytest.raises(ValueError):
            RingCalibration(inner_temperature_c=82.0, outer_temperature_c=82.0)


class TestCouplingProbabilities:
    def test_narrow_annulus_on_inner_ring(self):
        layout = build_layout(35.0, 4.0)
        profile = emission_profile_from_temperature(82.5, annulus_width_um=3.0)
        pairs = coupling_probabilities(profile, layout)
        inner = [p.coupling_prob for p in pairs if p.ring == RING_INNER]
        outer = [p.coupling_prob for p in pairs if p.ring == RING_OUTER]
        coupled = sum(inner) + sum(outer)
        for prob in inner:
            assert prob == pytest.approx(coupled / 3, rel=1e-6)
        assert sum(outer) < 1e-6 * coupled

    def test_annulus_on_outer_ring(self):
        layout = build_layout(35.0, 4.0)
        profile = emission_profile_from_temperature(82.0, annulus_width_um=8.0)
        pairs = coupling_probabilities(profile, layout)
        inner = [p.coupling_prob for p in pairs if p.ring == RING_INNER]
        outer = [p.coupling_prob for p in pairs if p.ring == RING_OUTER]
        # the two outer orbits sit symmetrically about the annulus: all six
        # pairs couple within a few percent of each other
        assert max(outer) / min(outer) < 1.15
        assert sum(inner) < 0.05 * sum(outer)

    def test_same_orbit_couplings_identical(self):
        layout = build_layout()
        profile = emission_profile_from_temperature(82.2, annulus_width_um=10.0)
        pairs = coupling_probabilities(profile, layout)
        by_radius = {}
        for pair in pairs:
            r = round(layout.core(pair.core_a).radius_from_center_um, 9)
            by_radius.setdefault(r, set()).add(pair.coupling_prob)
        for probs in by_radius.values():
            assert len(probs) == 1  # bitwise identical within one orbit

    def test_probabilities_sum_with_remainder(self):
        layout = build_layout()
        for width in (3.0, 8.0, 17.5):
            profile = emission_profile_from_temperature(82.25, annulus_width_um=width)
            total = sum(p.coupling_prob for p in coupling_probabilities(profile, layout))
            # the remainder, 1 - total, is light on the center core or the cladding
            assert 0.0 < total < 1.0

    def test_quadrature_matches_adaptive_oracle(self):
        layout = build_layout(35.0, 4.0)
        for width in (2.0, 8.0, 17.5):
            profile = emission_profile_from_temperature(82.3, annulus_width_um=width)
            pairs = coupling_probabilities(profile, layout)
            for pair in (pairs[0], pairs[3], pairs[6]):
                d = layout.core(pair.core_a).radius_from_center_um
                expected = 2.0 * overlap_oracle(
                    d, 4.0, profile.annulus_radius_um, profile.annulus_width_um
                )
                assert pair.coupling_prob == pytest.approx(expected, abs=1e-9)

    def test_monotone_ring_selection(self):
        layout = build_layout()
        outer_coupling = []
        for t in (82.5, 82.6, 82.8, 83.0):
            profile = emission_profile_from_temperature(t, annulus_width_um=8.0)
            pairs = coupling_probabilities(profile, layout)
            outer_coupling.append(sum(p.coupling_prob for p in pairs if p.ring == RING_OUTER))
        for hi, lo in zip(outer_coupling, outer_coupling[1:]):
            assert lo <= hi + 1e-12

    def test_result_lookup(self):
        layout = build_layout()
        profile = emission_profile_from_temperature(82.5)
        pairs = coupling_probabilities(profile, layout)
        assert isinstance(pairs, tuple)
        assert {p.pair_id for p in pairs} == set(range(9))

"""19-core hexagonal fiber layout, opposite-core pairing and ring coupling.

The core bundle is one center core plus two hexagonal shells: six cores at
the pitch radius and twelve on the second shell (six corner sites at twice
the pitch, six edge-midpoint sites at sqrt(3) times the pitch).  Photon-pair
emission is modeled as a Gaussian annulus in the fiber end-face plane whose
radius follows the crystal temperature through a two-point linear
calibration; the fraction of the annulus intensity overlapping a core disk
sets that core pair's coupling probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "RING_CENTER",
    "RING_INNER",
    "RING_OUTER",
    "Core",
    "CoreLayout",
    "CorePair",
    "EmissionProfile",
    "RingCalibration",
    "build_layout",
    "emission_profile_from_temperature",
    "coupling_probabilities",
    "LayoutError",
]

RING_CENTER = "center"
RING_INNER = "inner"
RING_OUTER = "outer"

# fixed quadrature orders for the core-disk overlap integrals; validated to
# better than 1e-9 absolute against adaptive quadrature for annulus widths
# down to ~1/4 of the core radius
_N_RADIAL = 48
_N_ANGULAR = 256
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_N_RADIAL)


class LayoutError(ValueError):
    """Non-physical layout dimensions."""


@dataclass(frozen=True)
class Core:
    core_id: int
    x_um: float
    y_um: float
    ring: str

    @property
    def radius_from_center_um(self) -> float:
        return math.hypot(self.x_um, self.y_um)


@dataclass(frozen=True)
class CorePair:
    """Two opposite cores acting as one entanglement-distribution channel."""

    pair_id: int
    core_a: int
    core_b: int
    ring: str
    coupling_prob: float = 0.0


@dataclass(frozen=True)
class CoreLayout:
    cores: Tuple[Core, ...]
    pairs: Tuple[CorePair, ...]
    pitch_um: float
    core_radius_um: float

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]


@dataclass(frozen=True)
class EmissionProfile:
    """Gaussian annulus intensity in the fiber end-face image plane."""

    annulus_radius_um: float
    annulus_width_um: float
    temperature_c: float

    def __post_init__(self) -> None:
        if self.annulus_radius_um <= 0:
            raise ValueError("annulus radius must be > 0")
        if self.annulus_width_um <= 0:
            raise ValueError("annulus width must be > 0")


@dataclass(frozen=True)
class RingCalibration:
    """Temperature anchors mapping crystal temperature to annulus radius.

    The defaults place the hotter anchor on the inner ring and the colder
    one on the mean outer-shell radius, so lowering the temperature grows
    the emission cone from the inner onto the outer ring.
    """

    inner_temperature_c: float = 82.5
    inner_radius_um: float = 35.0
    outer_temperature_c: float = 82.0
    outer_radius_um: float = 35.0 * (math.sqrt(3.0) + 2.0) / 2.0

    def __post_init__(self) -> None:
        if self.inner_temperature_c == self.outer_temperature_c:
            raise ValueError("calibration anchors must have distinct temperatures")
        if self.inner_radius_um <= 0 or self.outer_radius_um <= 0:
            raise ValueError("calibration radii must be > 0")


def build_layout(pitch_um: float = 35.0, core_radius_um: float = 4.0) -> CoreLayout:
    """Construct the 19-core layout with exact point-reflection symmetry.

    Opposite cores are stored as the exact negation of their partner's
    coordinates so the reflection symmetry holds bit-for-bit.

    Raises:
        LayoutError: unless pitch > 2 * core_radius > 0 (cores would overlap
            or have no area).
    """
    if core_radius_um <= 0:
        raise LayoutError(f"core radius must be > 0, got {core_radius_um}")
    if pitch_um <= 2 * core_radius_um:
        raise LayoutError(
            f"pitch {pitch_um} um must exceed the core diameter "
            f"{2 * core_radius_um} um; cores overlap"
        )

    def ring_positions(radius: float, start_deg: float) -> list:
        half = []
        for k in range(3):
            ang = math.radians(start_deg + 60.0 * k)
            half.append((radius * math.cos(ang), radius * math.sin(ang)))
        return half + [(-x, -y) for (x, y) in half]

    cores = [Core(0, 0.0, 0.0, RING_CENTER)]
    positions = (
        [(p, RING_INNER) for p in ring_positions(pitch_um, 0.0)]
        + [(p, RING_OUTER) for p in ring_positions(2.0 * pitch_um, 0.0)]
        + [(p, RING_OUTER) for p in ring_positions(math.sqrt(3.0) * pitch_um, 30.0)]
    )
    for (xy, ring) in positions:
        cores.append(Core(len(cores), xy[0], xy[1], ring))

    # ids: 1-3 inner half, 4-6 their opposites, 7-9/10-12 outer corners,
    # 13-15/16-18 outer edge midpoints
    pairs = []
    for base in (1, 7, 13):
        ring = RING_INNER if base == 1 else RING_OUTER
        for k in range(3):
            pairs.append(CorePair(len(pairs), base + k, base + k + 3, ring))
    return CoreLayout(tuple(cores), tuple(pairs), pitch_um, core_radius_um)


def emission_profile_from_temperature(
    temperature_c: float,
    calibration: RingCalibration = RingCalibration(),
    annulus_width_um: float = 8.0,
) -> EmissionProfile:
    """Annulus radius from crystal temperature via the two-anchor line."""
    slope = (calibration.outer_radius_um - calibration.inner_radius_um) / (
        calibration.outer_temperature_c - calibration.inner_temperature_c
    )
    radius = calibration.inner_radius_um + slope * (
        temperature_c - calibration.inner_temperature_c
    )
    if radius <= 0:
        raise ValueError(
            f"temperature {temperature_c} C extrapolates to a non-positive "
            f"annulus radius ({radius:.3f} um)"
        )
    return EmissionProfile(radius, annulus_width_um, temperature_c)


def _annulus_total(r0: float, sigma: float) -> float:
    """Integral of exp(-(r - r0)^2 / 2 sigma^2) over the plane (closed form)."""
    radial = sigma * sigma * math.exp(-(r0 * r0) / (2 * sigma * sigma)) + r0 * sigma * math.sqrt(
        math.pi / 2.0
    ) * (1.0 + math.erf(r0 / (sigma * math.sqrt(2.0))))
    return 2.0 * math.pi * radial


def _disk_overlap(distance: float, disk_radius: float, r0: float, sigma: float) -> float:
    """Fraction of the normalized annulus intensity falling on one core disk.

    Fixed-order quadrature in polar coordinates around the disk center:
    Gauss-Legendre radially, uniform (periodic trapezoid) angularly.
    """
    rho = 0.5 * disk_radius * (_GL_NODES + 1.0)
    w_rho = 0.5 * disk_radius * _GL_WEIGHTS
    phi = 2.0 * math.pi * np.arange(_N_ANGULAR) / _N_ANGULAR
    x = distance + rho[:, None] * np.cos(phi)[None, :]
    y = rho[:, None] * np.sin(phi)[None, :]
    r = np.hypot(x, y)
    vals = np.exp(-((r - r0) ** 2) / (2.0 * sigma * sigma))
    integral = (2.0 * math.pi / _N_ANGULAR) * float((w_rho * rho) @ vals.sum(axis=1))
    return integral / _annulus_total(r0, sigma)


def coupling_probabilities(profile: EmissionProfile, layout: CoreLayout) -> Tuple[CorePair, ...]:
    """The layout's core pairs with their coupling probabilities |g|^2.

    A pair emission enters the pair when either photon lands in either core
    of the pair; by the point symmetry of the annulus both cores of a pair
    see the same overlap, so |g|^2 is twice the single-core overlap fraction.
    Light on the center core or the cladding is counted as uncoupled loss.
    """
    cache: Dict[float, float] = {}
    pairs = []
    for pair in layout.pairs:
        distance = layout.core(pair.core_a).radius_from_center_um
        if distance not in cache:
            cache[distance] = _disk_overlap(
                distance,
                layout.core_radius_um,
                profile.annulus_radius_um,
                profile.annulus_width_um,
            )
        pairs.append(replace(pair, coupling_prob=2.0 * cache[distance]))
    return tuple(pairs)


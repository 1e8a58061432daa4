"""Run configuration: schema, strict JSON validation, and bundled presets.

The schema is a tree of dataclasses; its ``source``, ``link`` and
``emission.calibration`` sections are the model's own ``SourceParams``,
``LinkParams`` and ``RingCalibration``.  Loading rejects unknown keys, type
mismatches, non-finite numbers and out-of-range values with the field path
in the error message, and a parsed configuration serializes back to the
same JSON (round-trip idempotent).

The ``preset_*`` builders return configurations calibrated to the bundled
reference scenario on a 411 m multicore link: per-pair coincidence rates of
roughly 4.26/4.24 kcps on the inner ring and 7.83/7.77 kcps on the outer
ring at QBERs near 3%, with ring losses of 40.06 dB and 35.48 dB used by the
length extrapolation.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any, Dict, List, Optional, Tuple, get_args, get_origin, get_type_hints

from .geometry import (
    CorePair,
    RingCalibration,
    build_layout,
    coupling_probabilities,
    emission_profile_from_temperature,
)
from .photonsim import LinkParams, SourceParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "LayoutConfig",
    "EmissionConfig",
    "ScheduleConfig",
    "DriftConfig",
    "AnalysisConfig",
    "KeyRateConfig",
    "LinkBudgetConfig",
    "load_config",
    "loads_config",
    "dump_config",
    "dumps_config",
    "coerce",
    "geometry_from_config",
    "selected_pairs",
    "window_capture_fraction",
    "preset",
    "preset_inner",
    "preset_outer",
    "preset_stability",
    "worker_count",
]


class ConfigError(ValueError):
    """Configuration schema violation; the message carries the field path."""


@dataclass
class LayoutConfig:
    pitch_um: float = 35.0
    core_radius_um: float = 4.0


@dataclass
class EmissionConfig:
    annulus_width_um: float = 8.0
    calibration: RingCalibration = field(default_factory=RingCalibration)


@dataclass
class ScheduleConfig:
    acquisition_s: float = 60.0
    bases: List[str] = field(default_factory=lambda: ["HV", "DA"])
    rate_scales: Dict[str, float] = field(default_factory=lambda: {"HV": 1.0, "DA": 1.0})


@dataclass
class DriftConfig:
    rate_deg_per_hour: float = 0.0
    max_offset_deg: float = 3.0


@dataclass
class AnalysisConfig:
    window_ps: int = 300
    # "full" (``window_ps`` is the total width) is the only mode; the key
    # stays because the benchmark harness reads it in traced runs
    window_mode: str = "full"
    hist_bin_ps: int = 50
    hist_range_ps: int = 5000
    accidental_offset_windows: float = 20.0


@dataclass
class KeyRateConfig:
    ec_efficiency: float = 1.2


@dataclass
class LinkBudgetConfig:
    ring_loss_db: float = 40.06
    reference_length_km: float = 0.411


@dataclass
class RunConfig:
    source: SourceParams
    seed: int = 42
    ring: str = "inner"
    pairs: Optional[List[int]] = None
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    emission: EmissionConfig = field(default_factory=EmissionConfig)
    link: LinkParams = field(default_factory=LinkParams)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    keyrate: KeyRateConfig = field(default_factory=KeyRateConfig)
    linkbudget: LinkBudgetConfig = field(default_factory=LinkBudgetConfig)

    def validate(self) -> None:
        if not 0 <= self.seed < 2**32:  # one uint32 entropy word, see ``photonsim``
            raise ConfigError(f"seed: must be >= 0 and < 2**32, got {self.seed}")
        if self.ring not in ("inner", "outer"):
            raise ConfigError(f"ring: must be 'inner' or 'outer', got {self.ring!r}")
        if self.pairs is not None:
            # pairs 0-2 are on the inner ring, 3-8 on the outer (``geometry.build_layout``)
            on_ring = range(3) if self.ring == "inner" else range(3, 9)
            bad = [p for p in self.pairs if p not in on_ring]
            if bad:
                raise ConfigError(f"pairs: ids {bad} are not on the {self.ring} ring")
            if len(set(self.pairs)) != len(self.pairs):
                raise ConfigError(f"pairs: duplicate pair id in {self.pairs}")
        for basis in self.schedule.bases:
            if basis not in ("HV", "DA"):
                raise ConfigError(f"schedule.bases: unknown basis {basis!r}")
        if not self.schedule.bases:
            raise ConfigError("schedule.bases: must not be empty")
        if len(set(self.schedule.bases)) != len(self.schedule.bases):
            raise ConfigError(f"schedule.bases: duplicate basis in {self.schedule.bases}")
        for basis, scale in self.schedule.rate_scales.items():
            if basis not in ("HV", "DA"):
                raise ConfigError(f"schedule.rate_scales.{basis}: unknown basis")
            if scale <= 0:
                raise ConfigError(f"schedule.rate_scales.{basis}: must be > 0")
        if self.schedule.acquisition_s <= 0:
            raise ConfigError("schedule.acquisition_s: must be > 0")
        if self.drift.rate_deg_per_hour < 0:
            raise ConfigError("drift.rate_deg_per_hour: must be >= 0")
        if self.drift.max_offset_deg <= 0:
            raise ConfigError("drift.max_offset_deg: must be > 0")
        a = self.analysis
        if a.window_mode != "full":
            raise ConfigError(f"analysis.window_mode: must be 'full', got {a.window_mode!r}")
        if a.window_ps <= 0:
            raise ConfigError("analysis.window_ps: must be > 0")
        if a.hist_bin_ps <= 0:
            raise ConfigError("analysis.hist_bin_ps: must be > 0")
        if a.hist_range_ps < a.hist_bin_ps or a.hist_range_ps % a.hist_bin_ps:
            raise ConfigError(
                f"analysis.hist_range_ps: must be a positive multiple of hist_bin_ps "
                f"({a.hist_bin_ps}), got {a.hist_range_ps}"
            )
        if a.accidental_offset_windows < 10:
            raise ConfigError("analysis.accidental_offset_windows: must be >= 10")
        if self.keyrate.ec_efficiency < 0:
            raise ConfigError("keyrate.ec_efficiency: must be >= 0")


def coerce(value: Any, hint: Any, path: str) -> Any:
    """``value`` parsed from JSON into type ``hint``, dataclasses through
    their own checks; every error is a ``ConfigError`` naming ``path``."""
    args = get_args(hint)
    if args and type(None) in args:  # Optional[...]
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return coerce(value, inner, path)
    origin = get_origin(hint)
    if origin is None and is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return _from_dict(hint, value, path)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if origin in (list, tuple):  # List[X] or Tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        items = [coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return {k: coerce(v, args[1], f"{path}.{k}") for k, v in value.items()}
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _from_dict(cls, data: Dict[str, Any], path: str):
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    kwargs = {}
    for f in fields(cls):
        sub_path = f"{path}.{f.name}" if path else f.name
        if f.name in data:
            kwargs[f.name] = coerce(data[f.name], hints[f.name], sub_path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{sub_path}: missing key")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def loads_config(text: str) -> RunConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    cfg = _from_dict(RunConfig, data, "")
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return loads_config(fh.read())
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def dumps_config(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True)


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(cfg) + "\n")


def geometry_from_config(cfg: RunConfig) -> Tuple[CorePair, ...]:
    """Temperature-driven coupling probabilities of a config's core pairs."""
    layout = build_layout(cfg.layout.pitch_um, cfg.layout.core_radius_um)
    profile = emission_profile_from_temperature(
        cfg.source.temperature_c, cfg.emission.calibration, cfg.emission.annulus_width_um
    )
    return coupling_probabilities(profile, layout)


def selected_pairs(cfg: RunConfig) -> Tuple[CorePair, ...]:
    """Core pairs measured by this run (``cfg.pairs``, or else the whole
    ring) in id order, with their coupling probabilities."""
    pairs = geometry_from_config(cfg)
    ids = [p.pair_id for p in pairs if p.ring == cfg.ring] if cfg.pairs is None else cfg.pairs
    pairs = tuple(p for p in pairs if p.pair_id in ids)
    if not pairs:
        raise ConfigError("pairs: empty pair set")
    return pairs


def window_capture_fraction(window_ps: float, jitter_sigma_ps: float, mode: str = "full") -> float:
    """Fraction of true coincidences whose time difference fits the window.

    Both detections jitter independently with the given sigma, so the
    difference is Gaussian with sigma * sqrt(2).  ``mode`` must be "full",
    the only window mode; the argument stays because the benchmark harness
    passes ``analysis.window_mode``.
    """
    if mode != "full":
        raise ValueError(f"window mode must be 'full', got {mode!r}")
    if jitter_sigma_ps <= 0:
        return 1.0
    return math.erf(window_ps / 2.0 / (2.0 * jitter_sigma_ps))


def _calibrated_config(
    *,
    ring: str,
    temperature_c: float,
    visibility: float,
    target_hv_cps: float,
    target_da_cps: float,
    ring_loss_db: float,
    seed: int,
) -> RunConfig:
    """Solve the source pair rate so the ring's mean per-pair coincidence
    rate in the HV basis hits the target, then scale the DA segment."""
    cfg = RunConfig(
        source=SourceParams(pair_rate=1.0, visibility=visibility, temperature_c=temperature_c),
        seed=seed,
        ring=ring,
        linkbudget=LinkBudgetConfig(ring_loss_db=ring_loss_db),
    )
    ring_pairs = selected_pairs(cfg)
    coupling_sum = sum(p.coupling_prob for p in ring_pairs)
    link, analysis = cfg.link, cfg.analysis
    t_arm = link.transmission
    eta_w = window_capture_fraction(analysis.window_ps, link.jitter_sigma_ps)
    keep = (1.0 - link.crosstalk_prob) ** 2
    detected_per_emission = coupling_sum * t_arm * t_arm * eta_w * keep
    pair_rate = len(ring_pairs) * target_hv_cps / detected_per_emission
    cfg.source = replace(cfg.source, pair_rate=pair_rate)
    cfg.schedule.rate_scales = {"HV": 1.0, "DA": target_da_cps / target_hv_cps}
    return cfg


def preset_inner(seed: int = 42) -> RunConfig:
    """Inner ring (3 pairs) calibrated so the ring totals about 7.3 kbit/s."""
    return _calibrated_config(
        ring="inner",
        temperature_c=82.5,
        visibility=0.94,
        target_hv_cps=4262.6,
        target_da_cps=4240.5,
        ring_loss_db=40.06,
        seed=seed,
    )


def preset_outer(seed: int = 43) -> RunConfig:
    """Outer ring (6 pairs) at per-pair rates of 7832/7770 cps."""
    return _calibrated_config(
        ring="outer",
        temperature_c=82.0,
        visibility=0.945,
        target_hv_cps=7832.0,
        target_da_cps=7770.0,
        ring_loss_db=35.48,
        seed=seed,
    )


def preset_stability(seed: int = 44) -> RunConfig:
    """One inner-ring pair under slow polarization drift for long runs."""
    cfg = preset_inner(seed=seed)
    cfg.pairs = [0]
    cfg.drift = DriftConfig(rate_deg_per_hour=2.0, max_offset_deg=3.0)
    return cfg


_PRESETS = {
    "inner": preset_inner,
    "outer": preset_outer,
    "stability": preset_stability,
}


def preset(name: str, seed: Optional[int] = None) -> RunConfig:
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None
    return builder() if seed is None else builder(seed=seed)


def worker_count(n_tasks: int) -> int:
    """Thread count for parallel acquisitions, capped by MCFQKD_THREADS."""
    cap = os.environ.get("MCFQKD_THREADS")
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError:
            raise ConfigError(f"MCFQKD_THREADS: expected an integer, got {cap!r}") from None
        if limit < 1:
            raise ConfigError("MCFQKD_THREADS: must be >= 1")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(n_tasks, limit))

"""Per-layer metrics of the traced run.

Layers are named after the ``mcfqkd`` modules and their public functions.
Each function layer reports ``calls`` and ``self_s`` per operation; some add
counts recorded at the same boundary, and a few ratios are formed from
those counts.  ``config.*`` runs during set-up and is reported per set-up.

A layer the workload is expected to call (``EXPECTED``) that is missing, or
that records no calls, is reported as unmeasured and its metrics are left
out, so a refactor cannot silently empty a layer.  A layer the workload
does not call reports zeros, which is what it costs there.
"""
from __future__ import annotations

import hashlib
import statistics
import threading
from typing import Dict, List, Optional, Tuple

import spans

FUNCTION_LAYERS = (
    "photonsim.simulate_run",
    "coincidence.tally_basis",
    "coincidence.cross_correlation",
    "coincidence.find_peak_delay",
    "coincidence.count_coincidences",
    "coincidence.estimate_accidentals",
    "runner.simulate_segment",
    "runner.analyze_segment",
    "runner.run_basis_scan",
    "runner.run_stability",
    "tagio.write_timetags",
    "tagio.read_timetags",
    "cli.cmd_simulate",
    "cli.cmd_analyze",
    "linkbudget.keyrate_at_length",
    "linkbudget.sweep_lengths",
    "linkbudget.max_positive_length",
    "qkdmath.secret_key_rate",
    "config.preset",
    "config.geometry_from_config",
)
SETUP_LAYERS = ("config.preset", "config.geometry_from_config")

_COINCIDENCE = {
    "coincidence.tally_basis",
    "coincidence.cross_correlation",
    "coincidence.find_peak_delay",
    "coincidence.count_coincidences",
    "coincidence.estimate_accidentals",
    "runner.analyze_segment",
}
_SIMULATION = {"photonsim.simulate_run", "runner.simulate_segment"}
EXPECTED = {
    "scan_outer": _SIMULATION | _COINCIDENCE | {"runner.run_basis_scan", *SETUP_LAYERS},
    "stability_24h": _SIMULATION | _COINCIDENCE | {"runner.run_stability", *SETUP_LAYERS},
    "cli_simulate": _SIMULATION | {"tagio.write_timetags", "cli.cmd_simulate", *SETUP_LAYERS},
    "cli_analyze": _COINCIDENCE | {"tagio.read_timetags", "cli.cmd_analyze", *SETUP_LAYERS},
    "linkbudget_sweep": {
        "linkbudget.keyrate_at_length",
        "linkbudget.sweep_lengths",
        "linkbudget.max_positive_length",
        "qkdmath.secret_key_rate",
        *SETUP_LAYERS,
    },
}

#: derived metric -> (unit, better, layers it needs measured)
DERIVED = {
    "photonsim.simulate_run.tags": ("count", "higher", ("photonsim.simulate_run",)),
    "photonsim.simulate_run.tags_per_s": ("1/s", "higher", ("photonsim.simulate_run",)),
    "coincidence.cross_correlation.pairs_binned": ("count", "lower", ("coincidence.cross_correlation",)),
    "coincidence.count_coincidences.matches": ("count", "higher", ("coincidence.count_coincidences",)),
    "coincidence.match_yield": ("ratio", "higher", ("coincidence.count_coincidences",)),
    "coincidence.accidental_ratio": ("ratio", "lower", ("coincidence.estimate_accidentals",)),
    "coincidence.capture_ratio": ("ratio", "higher", ("coincidence.count_coincidences",)),
    "runner.pool_busy": ("ratio", "higher", ("runner.simulate_segment", "runner.analyze_segment")),
    "tagio.write_timetags.bytes": ("B", "lower", ("tagio.write_timetags",)),
    "tagio.write_timetags.mib_per_s": ("MiB/s", "higher", ("tagio.write_timetags",)),
    "tagio.read_timetags.bytes": ("B", "lower", ("tagio.read_timetags",)),
    "tagio.read_timetags.mib_per_s": ("MiB/s", "higher", ("tagio.read_timetags",)),
    "trace.overhead_s": ("s", "lower", ()),
    "trace.self_share": ("ratio", "higher", ()),
}


def metric_table() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    table = []
    for layer in FUNCTION_LAYERS:
        table.append((f"{layer}.calls", "count", "lower"))
        table.append((f"{layer}.self_s", "s", "lower"))
    table += [(name, unit, better) for name, (unit, better, _) in DERIVED.items()]
    return table


class Counters:
    """Count hooks run after a span closes (see ``spans.Tracer.wrap``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.match_digests: List[str] = []

    def simulate(self, tracer, span, args, kwargs, result) -> None:
        tracer.count("tags", sum(len(s.alice) + len(s.bob) for s in result.streams.values()))
        tracer.count("truth", sum(p.true_coincidences for p in result.truth.pairs.values()))

    def cross_correlation(self, tracer, span, args, kwargs, result) -> None:
        tracer.count("pairs_binned", int(result.bins.sum()))

    def count_coincidences(self, tracer, span, args, kwargs, result) -> None:
        digest = hashlib.sha256(result.tobytes()).hexdigest()
        with self._lock:
            self.match_digests.append(digest)
        if span.parent is not None and span.parent.name == "coincidence.estimate_accidentals":
            return  # the offset-window pass is counted by estimate_accidentals
        tracer.count("matches", len(result))
        tracer.count("a_tags", len(args[0]))

    def estimate_accidentals(self, tracer, span, args, kwargs, result) -> None:
        tracer.count("accidentals", result.count)
        tracer.count("accidentals_analytic", result.analytic)

    def write_timetags(self, tracer, span, args, kwargs, result) -> None:
        tags = args[1] if len(args) > 1 else kwargs["tags"]
        tracer.count("write_bytes", 16 + tags.nbytes)

    def read_timetags(self, tracer, span, args, kwargs, result) -> None:
        tracer.count("read_bytes", 16 + result[0].nbytes)

    def take_match_digest(self) -> Optional[str]:
        """Order-independent digest of the index arrays since the last call
        (pool threads finish in any order)."""
        with self._lock:
            digests, self.match_digests = self.match_digests, []
        if not digests:
            return None
        return hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest()

    def specs(self):
        hooks = {
            "photonsim.simulate_run": self.simulate,
            "coincidence.cross_correlation": self.cross_correlation,
            "coincidence.count_coincidences": self.count_coincidences,
            "coincidence.estimate_accidentals": self.estimate_accidentals,
            "tagio.write_timetags": self.write_timetags,
            "tagio.read_timetags": self.read_timetags,
        }
        return [
            (layer, "mcfqkd." + layer.split(".")[0], layer.split(".")[1], hooks.get(layer))
            for layer in FUNCTION_LAYERS
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    workload: str,
    tracer: spans.Tracer,
    missing: List[str],
    traced_walls: List[float],
    untraced_walls: List[float],
    threads: int,
    capture_fraction: float,
    truth_per_op: Optional[int],
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics per operation, and the layers left unmeasured."""
    n_ops = len(traced_walls)
    expected = EXPECTED[workload]
    metrics: Dict[str, float] = {}
    unmeasured = []
    for layer in FUNCTION_LAYERS:
        phase, per = ("setup", 1) if layer in SETUP_LAYERS else ("op", n_ops)
        calls = tracer.calls[(phase, layer)]
        if layer in missing or (calls == 0 and layer in expected):
            unmeasured.append(layer)
            continue
        metrics[f"{layer}.calls"] = calls / per
        metrics[f"{layer}.self_s"] = tracer.self_s[(phase, layer)] / per

    def count(key: str) -> float:
        return tracer.counts[("op", key)]

    def self_s(layer: str) -> float:
        return tracer.self_s[("op", layer)]

    truth = count("truth") + (truth_per_op or 0) * n_ops
    wall = sum(traced_walls)
    derived = {
        "photonsim.simulate_run.tags": count("tags") / n_ops,
        "photonsim.simulate_run.tags_per_s": _ratio(count("tags"), self_s("photonsim.simulate_run")),
        "coincidence.cross_correlation.pairs_binned": count("pairs_binned") / n_ops,
        "coincidence.count_coincidences.matches": count("matches") / n_ops,
        "coincidence.match_yield": _ratio(count("matches"), count("a_tags")),
        "coincidence.accidental_ratio": _ratio(count("accidentals"), count("accidentals_analytic")),
        "coincidence.capture_ratio": _ratio(count("matches"), truth * capture_fraction),
        "runner.pool_busy": _ratio(
            tracer.total_s[("op", "runner.simulate_segment")] + tracer.total_s[("op", "runner.analyze_segment")],
            wall * threads,
        ),
        "tagio.write_timetags.bytes": count("write_bytes") / n_ops,
        "tagio.write_timetags.mib_per_s": _ratio(count("write_bytes") / 2**20, self_s("tagio.write_timetags")),
        "tagio.read_timetags.bytes": count("read_bytes") / n_ops,
        "tagio.read_timetags.mib_per_s": _ratio(count("read_bytes") / 2**20, self_s("tagio.read_timetags")),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "trace.self_share": _ratio(sum(v for (phase, _), v in tracer.self_s.items() if phase == "op"), wall),
    }
    for name, value in derived.items():
        if not any(layer in unmeasured for layer in DERIVED[name][2]):
            metrics[name] = value
    return metrics, unmeasured

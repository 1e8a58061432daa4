"""The benchmark's workloads: the paper's runs at the sizes the paper used.

Each workload has four steps:

* ``configure(seed)`` builds the preset configuration and geometry.  Its
  time, with the import of ``mcfqkd`` before it, is the ``setup_s`` metric.
* ``prepare(state)`` makes inputs that are not part of set-up (the tag files
  that ``cli_analyze`` reads).
* ``run(state, k)`` is the timed operation; ``k`` counts operations.
* ``check(state, out)`` applies the acceptance bands of the test suite's
  criterion for that run and returns the failures.  ``digest`` fingerprints
  the outputs: every repeated operation in a run must reproduce the first
  one's digest.

The seed given on the command line replaces the presets' seeds, so every
stochastic input follows from it; ``None`` keeps the presets' own seeds.
Nothing here imports ``mcfqkd`` at module level, so ``setup_s`` includes
the import.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import operator
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: criterion 6: outer-ring per-pair rates (cps), relative tolerance, QBER band
OUTER_RATES = {"HV": 7832.0, "DA": 7770.0}
RATE_TOL = 0.06
QBER_TOL = 0.003
OUTER_TOTAL_BITS_S = (25_000.0, 45_000.0)
#: criterion 8: 24 h stability run
STABILITY_POINTS = 48
STABILITY_QBER = (0.025, 0.035)
STABILITY_RATE_BITS_S = (2000.0, 2600.0)
STABILITY_MAX_DRIFT_DEG = 3.0
#: criterion 7: key rate versus length, swept to 250 km in 10 m steps
SWEEP_LMAX_KM = 250.0
SWEEP_STEP_KM = 0.01
REACH_KM = (150.0, 220.0)


def _json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _preset(name: str, seed: Optional[int]):
    """The preset and its geometry, which the runner and the CLI build
    again from the config; building it here is part of ``setup_s``."""
    from mcfqkd import config

    cfg = config.preset(name, seed=seed)
    config.geometry_from_config(cfg)
    return cfg


def _cli(argv: List[str]) -> None:
    from mcfqkd import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"mcfqkd {argv[0]} exited with {rc}")


def _seed_args(seed: Optional[int]) -> List[str]:
    return [] if seed is None else ["--seed", str(seed)]


def _tag_count(directory: Path) -> int:
    return sum((p.stat().st_size - 16) // 16 for p in directory.glob("*.mcqt"))


def _dir_digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def _criterion_6(rows, total_bits_s: float, visibility: float) -> List[str]:
    """``rows``: (pair id, {basis: (rate cps, qber)})."""
    failures = []
    q_set = (1.0 - visibility) / 2.0
    for pair_id, per_basis in rows:
        for basis, target in OUTER_RATES.items():
            rate, qber = per_basis[basis]
            if abs(rate - target) > RATE_TOL * target:
                failures.append(f"pair {pair_id} {basis}: rate {rate:.1f} cps not within 6% of {target}")
            if qber is None or abs(qber - q_set) > QBER_TOL:
                failures.append(f"pair {pair_id} {basis}: QBER {qber} not within {QBER_TOL} of {q_set:.4f}")
    lo, hi = OUTER_TOTAL_BITS_S
    if not lo <= total_bits_s <= hi:
        failures.append(f"ring total {total_bits_s:.0f} bit/s outside [{lo}, {hi}]")
    return failures


class Workload:
    name = ""
    #: operations well under a second, timed against the CPU's speed probed
    #: around each one (see run.py)
    probe_speed = False
    #: tags are counted at ``simulate_run`` (see run.py) instead of by ``items``
    counts_simulated_tags = False
    #: the check reads files the measured process must not load before its
    #: peak memory is taken, so it runs after the timed loop
    deferred_check = False

    def __init__(self, seed: Optional[int], work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def configure(self):
        raise NotImplementedError

    def prepare(self, state) -> None:
        pass

    def run(self, state, k: int):
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def items(self, state, out) -> int:
        raise NotImplementedError

    def check(self, state, out) -> List[str]:
        raise NotImplementedError

    def release(self, out) -> None:
        """Frees an output once it has been verified."""

    def ground_truth_per_op(self, state) -> Optional[int]:
        """True coincidences behind one operation when no ``simulate_run``
        call inside the operation reports them."""
        return None


class ScanOuter(Workload):
    name = "scan_outer"
    counts_simulated_tags = True

    def configure(self):
        return {"cfg": _preset("outer", self.seed)}

    def run(self, state, k):
        from mcfqkd import runner

        return runner.run_basis_scan(state["cfg"])

    def digest(self, out):
        return _json_digest(dataclasses.asdict(out))

    def check(self, state, out):
        rows = [
            (p.pair_id, {"HV": (p.hv.coincidence_rate_cps, p.hv.qber), "DA": (p.da.coincidence_rate_cps, p.da.qber)})
            for p in out.pairs
        ]
        failures = _criterion_6(rows, out.total_bits_s, state["cfg"].source.visibility)
        if len(out.pairs) != 6:
            failures.append(f"{len(out.pairs)} outer pairs, expected 6")
        return failures


class Stability24h(Workload):
    name = "stability_24h"
    counts_simulated_tags = True

    def configure(self):
        return {"cfg": _preset("stability", self.seed)}

    def run(self, state, k):
        from mcfqkd import runner

        return runner.run_stability(state["cfg"], 24.0, 30.0, 60.0)

    def digest(self, out):
        return _json_digest([dataclasses.asdict(p) for p in out])

    def check(self, state, out):
        failures = []
        if len(out) != STABILITY_POINTS:
            return [f"{len(out)} points, expected {STABILITY_POINTS}"]
        if any(p.qber is None for p in out):
            return ["a slot has no QBER"]
        qber = sum(p.qber for p in out) / len(out)
        rate = sum(p.skr_bits_s for p in out) / len(out)
        if not STABILITY_QBER[0] <= qber <= STABILITY_QBER[1]:
            failures.append(f"mean QBER {qber:.4f} outside {STABILITY_QBER}")
        if not STABILITY_RATE_BITS_S[0] <= rate <= STABILITY_RATE_BITS_S[1]:
            failures.append(f"mean key rate {rate:.0f} bit/s outside {STABILITY_RATE_BITS_S}")
        drift = max(abs(p.drift_offset_deg) for p in out)
        if drift > STABILITY_MAX_DRIFT_DEG:
            failures.append(f"|drift| {drift:.2f} deg above {STABILITY_MAX_DRIFT_DEG}")
        return failures


def _report_check(report_dir: Path, visibility: float) -> List[str]:
    report = json.loads((report_dir / "report.json").read_text())
    rows = [
        (
            p["pair_id"],
            {
                "HV": (p["hv"]["coincidence_rate_cps"], p["hv"]["qber"]),
                "DA": (p["da"]["coincidence_rate_cps"], p["da"]["qber"]),
            },
        )
        for p in report["pairs"]
    ]
    failures = _criterion_6(rows, report["total_bits_s"], visibility)
    if len(rows) != 6:
        failures.append(f"{len(rows)} outer pairs, expected 6")
    return failures


class CliSimulate(Workload):
    """``mcfqkd simulate --preset outer``; the first output directory is kept
    and analyzed after the timed loop."""

    name = "cli_simulate"
    deferred_check = True

    def configure(self):
        return {"cfg": _preset("outer", self.seed)}

    def run(self, state, k):
        out = self.work_dir / f"sim{k}"
        _cli(["simulate", "--preset", "outer", *_seed_args(self.seed), "--out", str(out)])
        return out

    def digest(self, out):
        return _dir_digest(out, [p.name for p in out.iterdir()])

    def items(self, state, out):
        return _tag_count(out)

    def check(self, state, out):
        report_dir = self.work_dir / "check-report"
        _cli(["analyze", "--in", str(out), "--out", str(report_dir)])
        return _report_check(report_dir, state["cfg"].source.visibility)

    def release(self, out):
        shutil.rmtree(out)


class CliAnalyze(Workload):
    """``mcfqkd analyze`` on tag files that a separate process simulated
    beforehand, so the measured process's peak memory is analyze's alone."""

    name = "cli_analyze"

    def configure(self):
        return {"cfg": _preset("outer", self.seed)}

    def prepare(self, state):
        fixture = self.work_dir / "fixture"
        src = Path(sys.modules["mcfqkd"].__file__).parent.parent
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from mcfqkd.cli import main; sys.exit(main(sys.argv[2:]))"
        )
        argv = ["simulate", "--preset", "outer", *_seed_args(self.seed), "--out", str(fixture)]
        subprocess.run(
            [sys.executable, "-I", "-c", code, str(src), *argv],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        meta = json.loads((fixture / "ground_truth.json").read_text())
        state["fixture"] = fixture
        state["tags"] = _tag_count(fixture)
        state["truth"] = sum(
            n for entry in meta["truth"]["per_pair"].values() for n in entry["true_coincidences"].values()
        )

    def run(self, state, k):
        out = self.work_dir / f"report{k}"
        _cli(["analyze", "--in", str(state["fixture"]), "--out", str(out)])
        return out

    def digest(self, out):
        return _dir_digest(out, ["report.json", "report.csv"])

    def items(self, state, out):
        return state["tags"]

    def check(self, state, out):
        return _report_check(out, state["cfg"].source.visibility)

    def release(self, out):
        shutil.rmtree(out)

    def ground_truth_per_op(self, state):
        return state["truth"]


class LinkbudgetSweep(Workload):
    """Both rings: 25,001-point sweep to 250 km plus the maximum reach."""

    name = "linkbudget_sweep"
    probe_speed = True

    def configure(self):
        from mcfqkd import config, linkbudget

        return {
            ring: linkbudget.model_from_config(config.preset(ring, seed=self.seed))
            for ring in ("inner", "outer")
        }

    def run(self, state, k):
        from mcfqkd import linkbudget

        return {
            ring: (
                linkbudget.sweep_lengths(model, SWEEP_LMAX_KM, SWEEP_STEP_KM),
                linkbudget.max_positive_length(model),
            )
            for ring, model in state.items()
        }

    def digest(self, out):
        import numpy as np

        fields = operator.attrgetter("length_km", "coin_rate_cps", "qber", "skr_pair_bits_s", "skr_ring_bits_s")
        h = hashlib.sha256()
        for ring, (points, reach) in sorted(out.items()):
            h.update(ring.encode())
            h.update(np.float64(reach).tobytes())
            # packed doubles: a seventh of the time of hashing their repr
            values = np.fromiter((x for p in points for x in fields(p)), dtype=np.float64, count=5 * len(points))
            h.update(values.tobytes())
        return h.hexdigest()

    def items(self, state, out):
        return sum(len(points) for points, _ in out.values())

    def check(self, state, out):
        failures = []
        expected_points = int(round(SWEEP_LMAX_KM / SWEEP_STEP_KM)) + 1
        for ring, (points, reach) in out.items():
            if not REACH_KM[0] <= reach <= REACH_KM[1]:
                failures.append(f"{ring}: reach {reach:.1f} km outside {REACH_KM}")
            if len(points) != expected_points:
                failures.append(f"{ring}: {len(points)} grid points, expected {expected_points}")
            prev_pair = prev_ring = math.inf
            crossed = False
            for p in points:
                clamped = max(0.0, p.skr_pair_bits_s)
                if clamped > prev_pair + 1e-9 or p.skr_ring_bits_s > prev_ring + 1e-9:
                    failures.append(f"{ring}: clamped rate rises at {p.length_km} km")
                    break
                if crossed and p.skr_pair_bits_s > 0.0:
                    failures.append(f"{ring}: rate turns positive again at {p.length_km} km")
                    break
                crossed = crossed or p.skr_pair_bits_s <= 0.0
                prev_pair, prev_ring = clamped, p.skr_ring_bits_s
        if out["inner"][1] >= out["outer"][1]:
            failures.append("inner reach is not below outer reach")
        return failures


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ScanOuter, Stability24h, CliSimulate, CliAnalyze, LinkbudgetSweep)
}

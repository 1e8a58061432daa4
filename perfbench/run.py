"""Benchmark of mcfqkd: the paper's runs as workloads, measured in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_outer --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``scan_outer`` (outer-ring HV/DA basis
scan, 6 pairs x 60 s, on the pair thread pool), ``stability_24h`` (48
alternating-basis acquisitions of 60 s), ``cli_simulate`` and
``cli_analyze`` (the two halves of the CLI round trip on the outer preset,
so a gain on one side that costs the other shows), ``linkbudget_sweep``
(analytic key rate versus length for both rings, the control that touches
no simulation or analysis code).

The operation is repeated until ``--seconds`` have passed, and at least
``MIN_OPS`` times (untraced and traced times each with ``--trace 1``).
Every operation's outputs are checked against the acceptance bands of the
matching test-suite criterion, and every repetition must reproduce the
first one's output digest; an operation that raises or fails either check
counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: mean wall time of one operation over the run.
* ``items_per_s``: work per wall second over the run; detector tags
  simulated or analyzed on the acquisition workloads, length-grid points on
  ``linkbudget_sweep``.
* ``cpu_s``: mean process CPU time of one operation, all threads.
* ``peak_rss_mib``: peak resident memory of this process over set-up and
  its first two operations.
* ``setup_s``: median over fresh interpreters of importing ``mcfqkd`` and
  building the workload's preset configuration and geometry.

Times are this process's own wall and CPU times, with one exception below.
A shared virtual CPU can run at two speeds (about 1.2x and 1.9x its fastest
time on a 2-vCPU Xeon virtual machine), each vCPU on its own, switching
every few to some tens of seconds.  Short operations then take one of two
times, and a median jumps between them from run to run, while the mean
follows the share of time the run spent at each speed: on that machine
the ten-run spread of ``linkbudget_sweep`` was 13-23% for the mean and
18-27% for the median.

The operations of ``linkbudget_sweep`` last about half a second, and its
raw times still moved by 24% between two sets of runs forty minutes apart.
Its times (``Workload.probe_speed``) are scaled to a reference speed: a
fixed pure-Python loop (``_probe_s``) runs on the benchmark's thread just
before and just after each operation, while no code of the program runs,
and the operation's times are multiplied by ``PROBE_REF_S`` over the mean
of the two.  The speed seldom changes within so short an operation, and the
divisor cannot depend on the code under test; the spread fell to 2-6%.
Operations of several seconds change speed within them, so probes around
them do not track their speed (the spread of ``scan_outer`` and
``stability_24h`` rose from 4-8% to 16-19%); their times are raw, as are
``setup_s`` and all per-layer times.

Errors show as ``failed`` out of ``attempted`` in the result, not as a
metric, since a metric must not be 0.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of ``layers.py``; the raw spans of the first traced
operation go to ``.perfbench/traces/``.  The line before the result holds
the environment, the samples, the output digests and any unmeasured layer.

The tags of ``scan_outer`` and ``stability_24h`` are counted, with
``--trace 0``, by the traced run's own hook on ``photonsim.simulate_run`` (a
few dozen calls per operation); nothing else is wrapped in an untraced
operation.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: pair-pool threads; never more than the CPUs this process may use
MAX_THREADS = 2
#: fresh interpreters timed for ``setup_s``
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
#: thread CPU time of ``_probe_s``'s loop at the speed that probed
#: workloads' times are given at: about the fast speed of a 2-vCPU Xeon
#: virtual machine with Python 3.11
PROBE_REF_S = 3.5e-4
#: fewest operations of each kind in a run, so that no figure, and in
#: particular ``trace.overhead_s``, rests on one or two operations
MIN_OPS = 3


def _import_mcfqkd():
    import mcfqkd

    if not Path(mcfqkd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"mcfqkd was imported from {mcfqkd.__file__}, not from {SRC}")
    return mcfqkd


def _probe_s() -> float:
    """Thread CPU time of a fixed pure-Python loop, the fastest of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.thread_time()
        acc = 0.0
        for i in range(2000):
            x = 1.0 + i * 1e-4
            acc += math.log2(x) * x - 10.0 ** (-x / 10.0)
        best = min(best, time.thread_time() - t0)
    return best


def _time_setup(workload_cls, seed) -> int:
    t0 = time.perf_counter()
    _import_mcfqkd()
    workload_cls(seed, None).configure()
    print(repr(time.perf_counter() - t0))
    return 0


def _measure_setup(name: str, seed) -> list:
    argv = [sys.executable, "-I", str(Path(__file__).resolve()), "--time-setup", "--workload", name]
    if seed is not None:
        argv += ["--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class TagCount:
    """Counts the tags ``photonsim.simulate_run`` returns, through the hook
    the traced run records them with."""

    def __init__(self) -> None:
        self.tally = spans.Tracer()
        self.tally.phase = "op"
        specs = [s for s in layers.Counters().specs() if s[0] == "photonsim.simulate_run"]
        self.patches, missing = spans.install(self.tally, specs)
        if missing:
            raise RuntimeError("mcfqkd.photonsim.simulate_run not found; cannot count tags")

    def take(self) -> float:
        return self.tally.counts.pop(("op", "tags"), 0)


class Operations:
    """Runs, times and verifies the repeated operation of one workload."""

    def __init__(self, workload, state, tag_count):
        self.workload = workload
        self.state = state
        self.tag_count = tag_count
        self.records = []
        self.first_digest = None
        self.first_out = None
        self.first_failures = []

    def run_one(self, traced: bool = False) -> dict:
        k = len(self.records)
        record = {"traced": traced, "error": None, "digest": None}
        if self.tag_count is not None:
            self.tag_count.take()
        probe_before = _probe_s() if self.workload.probe_speed else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = self.workload.run(self.state, k)
        except Exception:
            out = None
            record["error"] = traceback.format_exc(limit=4)
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - c0
        # times at the reference speed; raw where the workload is not probed
        record["speed"] = PROBE_REF_S * 2 / (probe_before + _probe_s()) if probe_before else 1.0
        record["max_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if out is not None:
            try:
                self._verify(out, record)
            except Exception:
                record["error"] = traceback.format_exc(limit=4)
        if record["error"]:
            print(f"perfbench: operation {k} failed:\n{record['error']}", file=sys.stderr)
        self.records.append(record)
        return record

    def _verify(self, out, record: dict) -> None:
        record["digest"] = self.workload.digest(out)
        if self.workload.counts_simulated_tags:
            record["items"] = self.tag_count.take() if self.tag_count is not None else None
        else:
            record["items"] = self.workload.items(self.state, out)
        if self.first_digest is None:
            self.first_digest = record["digest"]
            if self.workload.deferred_check:
                self.first_out = out
            else:
                self.first_failures = self.workload.check(self.state, out)
        if out is not self.first_out:
            self.workload.release(out)

    def finish(self) -> None:
        """Runs a deferred check, after the operations' peak memory has been
        recorded."""
        if self.first_out is not None:
            try:
                self.first_failures = self.workload.check(self.state, self.first_out)
            except Exception:
                self.first_failures = [traceback.format_exc(limit=4)]
        for failure in self.first_failures:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)

    def failed(self, record: dict) -> bool:
        if record["error"] or record["digest"] is None:
            return True
        return record["digest"] != self.first_digest or bool(self.first_failures)


def _run_for(seconds: float, min_steps: int, step) -> None:
    """Calls ``step(k)`` until ``seconds`` have passed, at least ``min_steps``
    times."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_steps or time.perf_counter() < deadline:
        step(k)
        k += 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="overrides the presets' seeds")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--time-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mcfqkd" / "__init__.py").is_file():
        print(f"perfbench: no mcfqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
    os.environ["MCFQKD_THREADS"] = str(threads)
    workload_cls = WORKLOADS[args.workload]
    if args.time_setup:
        return _time_setup(workload_cls, args.seed)

    setup_samples = _measure_setup(args.workload, args.seed) if args.trace == 0 else []
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, threads, workload_cls, work_dir, setup_samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, threads, workload_cls, work_dir, setup_samples) -> int:
    mcfqkd = _import_mcfqkd()
    import mcfqkd.cli  # noqa: F401  (not imported by the package itself)
    import numpy

    workload = workload_cls(args.seed, work_dir)
    tracer = counters = None
    missing = []
    if args.trace:
        tracer, counters = spans.Tracer(), layers.Counters()
        patches, missing = spans.install(tracer, counters.specs())
    state = workload.configure()
    if args.trace:
        spans.uninstall(patches)
        tracer.phase = "op"
    workload.prepare(state)

    tag_count = TagCount() if workload.counts_simulated_tags and not args.trace else None
    ops = Operations(workload, state, tag_count)
    match_digests = []

    def step(k: int) -> None:
        if not args.trace or k % 2 == 0:
            ops.run_one()
            return
        tracer.keep_spans = k == 1
        patches, _ = spans.install(tracer, counters.specs())
        try:
            ops.run_one(traced=True)
        finally:
            spans.uninstall(patches)
        match_digests.append(counters.take_match_digest())

    _run_for(args.seconds, MIN_OPS * (1 + args.trace), step)
    ops.finish()
    if tag_count is not None:
        spans.uninstall(tag_count.patches)

    records = ops.records
    failed = sum(ops.failed(r) for r in records)
    untraced = [r for r in records if not r["traced"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": {
            "cpu_count": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "MCFQKD_THREADS": threads,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "commit": _git_commit(),
            "mcfqkd": mcfqkd.__version__,
        },
        "operations": len(records),
        "wall_s_samples": [r["wall_s"] for r in records],
        "cpu_s_samples": [r["cpu_s"] for r in records],
        "speed_samples": [r["speed"] for r in records],
        "max_rss_mib_after_op": [r["max_rss_mib"] for r in records],
        "setup_s_samples": setup_samples,
        "output_digest": ops.first_digest,
        "check_failures": ops.first_failures,
    }
    if args.trace:
        traced_walls = [r["wall_s"] for r in records if r["traced"]]
        from mcfqkd.config import window_capture_fraction

        cfg = state.get("cfg")  # linkbudget_sweep has no acquisitions
        capture = (
            window_capture_fraction(cfg.analysis.window_ps, cfg.link.jitter_sigma_ps, cfg.analysis.window_mode)
            if cfg is not None
            else 1.0
        )
        values, unmeasured = layers.layer_metrics(
            args.workload,
            tracer,
            missing,
            traced_walls,
            [r["wall_s"] for r in untraced],
            threads,
            capture,
            workload.ground_truth_per_op(state),
        )
        units = {name: unit for name, unit, _ in layers.metric_table()}
        metrics = {name: _metric(value, units[name]) for name, value in values.items()}
        info["unmeasured_layers"] = unmeasured
        info["match_index_digest"] = match_digests[0] if match_digests else None
        if len(set(match_digests)) > 1:
            info["check_failures"].append("count_coincidences index arrays differ between traced operations")
            failed = len(records)
        for layer in unmeasured:
            print(f"perfbench: layer {layer} is unmeasured on {args.workload}", file=sys.stderr)
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{'default' if args.seed is None else args.seed}.json"
        trace_path.write_text(json.dumps({"spans": tracer.kept, "dropped": tracer.dropped}))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        ref_walls = [r["wall_s"] * r["speed"] for r in records]
        metrics = {
            "wall_s": _metric(statistics.fmean(ref_walls), "s"),
            "items_per_s": _metric(sum(r.get("items", 0) for r in records) / sum(ref_walls), "1/s"),
            "cpu_s": _metric(statistics.fmean(r["cpu_s"] * r["speed"] for r in records), "s"),
            # after the second operation: the first one's peak is bimodal
            # on cli_simulate (malloc's adaptive mmap threshold), and later
            # ones add allocator growth, which would tie the peak to how
            # many operations fit in the run
            "peak_rss_mib": _metric(records[1]["max_rss_mib"], "MiB"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
        }
    info["error_rate"] = failed / len(records)
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Round loop, machine-speed calibration and metric reporting.

A run warms up, then repeats rounds of the workload's seeded inputs until
``--seconds`` have passed.  While an untraced round runs, the
:class:`~perfbench.probe.SpeedSampler` probes the machine's speed every
few milliseconds; the round's active time (probe time removed) scaled by
the reference over the mean probe time is its *calibrated* time.  Metrics
are medians over rounds.

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  A
traced round is not probed (the probe would land inside layer spans); it
is calibrated with the mean factor of the untraced rounds around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

from .layers import LayerTracer
from .probe import SpeedSampler
from .scenarios import DEFAULT_SEED, WORKLOADS, Interval, Outcome, expected_digests

#: End-to-end metrics (untraced rounds): name -> unit.  ``setup_s`` is in
#: calibrated seconds like every host time here (seconds on the machine the
#: reference probe time was taken on); it keeps the plain unit ``s`` that
#: the benchmark schema fixes for the set-up metric.  ``peak_rss_mib`` is
#: the whole process, interpreter and imports included; ``rss_growth_mib``
#: is the part the workload's rounds add above the high-water mark reached
#: before the first round.
END_TO_END = {
    "sim_ops_per_cal_s": "ops/cal_s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "rss_growth_mib": "MiB",
}

#: Per-layer metrics (traced rounds, counts per round): name -> unit.
PER_LAYER = {
    "host.access_calls": "count",
    "host.access_cal_ns": "cal_ns",
    "rc.read_calls": "count",
    "rc.read_cal_ns": "cal_ns",
    "rc.write_calls": "count",
    "rc.write_cal_ns": "cal_ns",
    "rc.write_read_calls": "count",
    "rc.write_read_cal_ns": "cal_ns",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.cal_ns": "cal_ns",
    "iommu.translations": "count",
    "iommu.iotlb_misses": "count",
    "iommu.translate_cal_ns": "cal_ns",
    "noise.samples": "count",
    "noise.sample_cal_ns": "cal_ns",
    "host.build_cal_s": "cal_s",
    "engine.events": "count",
    "engine.loop_self_cal_s": "cal_s",
    "engine.cal_ns_per_event": "cal_ns",
    "arb.requests": "count",
    "arb.request_cal_ns": "cal_ns",
    "arb.sim_wait_ns_mean": "sim_ns",
    "control.ticks": "count",
    "control.actions": "count",
    "sketch.adds": "count",
    "sketch.add_cal_ns": "cal_ns",
    "build.cal_s": "cal_s",
    "stats.cal_s": "cal_s",
    "trace.overhead_frac": "ratio",
}

#: Rounds of each kind measured even when ``--seconds`` runs out first.
MIN_ROUNDS = 5


@dataclass
class Round:
    """One executed round: its outcome (``None`` if it raised) and timing.

    Times are host seconds with probe time removed; ``factor`` turns them
    into calibrated seconds.
    """

    traced: bool
    outcome: Outcome | None
    problems: list[str]
    active_s: float = 0.0
    setup_s: float = 0.0
    build_s: float = 0.0
    stats_s: float = 0.0
    probe_s: float | None = None
    factor: float = 1.0
    layers: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return self.outcome is not None and not self.problems

    @property
    def cal_s(self) -> float:
        return self.active_s * self.factor


class Runner:
    """Runs rounds of one workload and checks each against the reference digest."""

    def __init__(self, workload, reference_digest: str | None) -> None:
        self.workload = workload
        self.reference = reference_digest
        self.tracer = LayerTracer()

    def run(self, traced: bool) -> Round:
        gc.collect()
        sampler = None
        try:
            if traced:
                self.tracer.reset()
                with self.tracer:
                    start = perf_counter()
                    outcome = self.workload.run_round()
                    end = perf_counter()
            else:
                with SpeedSampler() as sampler:
                    start = perf_counter()
                    outcome = self.workload.run_round()
                    end = perf_counter()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Round(traced, None, ["round raised"])

        def active(intervals: list[Interval]) -> float:
            probed = sampler.probe_s_within if sampler is not None else lambda *_: 0.0
            return sum(stop - begin - probed(begin, stop) for begin, stop in intervals)

        problems = list(outcome.problems)
        if self.reference is None:
            self.reference = outcome.digest
        elif outcome.digest != self.reference:
            problems.append(
                f"digest {outcome.digest} differs from reference {self.reference}"
            )
        record = Round(
            traced,
            outcome,
            problems,
            active_s=active([(start, end)]),
            setup_s=active(outcome.setup),
            build_s=active(outcome.build),
            stats_s=active(outcome.stats),
        )
        if sampler is not None:
            record.probe_s = sampler.mean_probe_s
            record.factor = sampler.factor
        if traced:
            problems.extend(self.tracer.cross_check(outcome.counters))
            record.layers = self.tracer.readings()
        return record


def measure(
    runner: Runner, seconds: float, trace: bool
) -> tuple[list[Round], list[Round]]:
    """Warm up, then run rounds for ``seconds`` (``MIN_ROUNDS`` of each kind at least).

    Returns the warm-up rounds (checked but never used for metrics) and
    the measured rounds.
    """
    kinds = (False, True) if trace else (False,)
    warmup = [runner.run(traced) for traced in kinds]
    measured: list[Round] = []
    start = perf_counter()
    minimum = MIN_ROUNDS * len(kinds)
    while perf_counter() - start < seconds or len(measured) < minimum:
        measured.append(runner.run(kinds[len(measured) % len(kinds)]))
    for index, record in enumerate(measured):
        if record.traced:
            probed = [
                measured[i].factor
                for i in (index - 1, index + 1)
                if i < len(measured) and measured[i].probe_s is not None
            ]
            record.factor = statistics.mean(probed) if probed else 1.0
    return warmup, measured


def peak_rss_mib() -> float:
    """The process's resident-memory high-water mark so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summarise(
    measured: list[Round], trace: bool, baseline_rss_mib: float
) -> dict[str, float]:
    """Calibrated metrics from the measured rounds that passed their checks.

    ``baseline_rss_mib`` is the memory high-water mark before the first
    round, which ``rss_growth_mib`` is measured above.
    """
    plain = [record for record in measured if record.ok and not record.traced]
    traced = [record for record in measured if record.ok and record.traced]
    if not plain or (trace and not traced):
        return {}
    median = statistics.median
    if not trace:
        ops = plain[0].outcome.ops
        peak = peak_rss_mib()
        return {
            "sim_ops_per_cal_s": ops / median(record.cal_s for record in plain),
            "setup_s": median(record.setup_s * record.factor for record in plain),
            "peak_rss_mib": peak,
            "rss_growth_mib": peak - baseline_rss_mib,
        }
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if name in ("build.cal_s", "stats.cal_s", "trace.overhead_frac"):
            continue
        calibrated = unit.startswith("cal_")
        metrics[name] = median(
            record.layers[name] * (record.factor if calibrated else 1.0)
            for record in traced
        )
    metrics["build.cal_s"] = median(record.build_s * record.factor for record in plain)
    metrics["stats.cal_s"] = median(record.stats_s * record.factor for record in plain)
    traced_s = median(record.cal_s for record in traced)
    plain_s = median(record.cal_s for record in plain)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    return metrics


def _count_mismatches(rounds: list[Round]) -> list[str]:
    """Per-round call counts must repeat exactly across traced rounds."""
    traced = [record for record in rounds if record.ok and record.traced]
    problems = []
    for name, unit in PER_LAYER.items():
        if unit == "count":
            values = {record.layers[name] for record in traced}
            if len(values) > 1:
                problems.append(f"{name} differs between traced rounds: {values}")
    return problems


def main(argv: list[str] | None = None, *, import_s: float = 0.0) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    trace = bool(args.trace)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = expected_digests()[args.workload]
    runner = Runner(WORKLOADS[args.workload](args.seed), reference)
    baseline_rss_mib = peak_rss_mib()
    warmup, measured = measure(runner, args.seconds, trace)
    rounds = warmup + measured
    metrics = summarise(measured, trace, baseline_rss_mib)

    failed = [record for record in rounds if not record.ok]
    for record in failed:
        kind = "traced" if record.traced else "untraced"
        for problem in record.problems:
            print(f"FAILED {kind} round: {problem}", file=sys.stderr)
    count_problems = _count_mismatches(rounds) if trace else []
    for problem in count_problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    units = PER_LAYER if trace else END_TO_END
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<26} {len(failed) / len(rounds):>16.6g} ratio")
    _print_diagnostics(measured, import_s)

    correct = not failed and not count_problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": len(rounds),
        "failed": len(failed) + bool(count_problems),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _print_diagnostics(measured: list[Round], import_s: float) -> None:
    """Ungated figures that show the machine's drift next to the metrics."""
    plain = [record for record in measured if record.ok and not record.traced]
    if plain:
        raw = statistics.median(
            record.outcome.ops / record.active_s for record in plain
        )
        factors = [record.factor for record in plain]
        probes = " ".join(f"{record.probe_s * 1e3:.3f}" for record in plain)
        print(f"  {'raw wall throughput':<26} {raw:>16.6g} ops/s (uncalibrated)")
        print(f"  speed factor range {min(factors):.4f} .. {max(factors):.4f}")
        print(f"  mean probe ms per round: {probes}")
    print(f"  {'import time':<26} {import_s:>16.6g} s (ungated)")

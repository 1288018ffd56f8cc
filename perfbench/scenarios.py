"""The benchmark's three seeded workloads of the exact engine.

Each workload builds its inputs once from the seed, then replays the same
inputs every round through the library's public entry points, the way a
user runs them.  A round returns an :class:`Outcome`: how many simulated
operations it completed, its set-up time, a digest of the simulated
statistics and any conservation violations.

* ``dma-sweep`` — the pcie-bench micro-benchmark grid (LAT_RD, LAT_WRRD,
  BW_RD, BW_WR) over a window inside the IOTLB reach and one larger than
  the LLC, IOMMU off and on, on the tight-noise E5 host and the heavy-tail
  E3 host, with a fresh host per cell; the transfer size alternates
  between two sizes across the grid.  Each cell runs through the library's
  own ``run_latency_benchmark`` / ``run_bandwidth_benchmark``.  The host
  layer (root complex, cache, IOMMU, noise) and host construction do all
  the work; the event wheel and the fabric do none.
* ``nicsim-link-mq`` — an uncoupled (``system=None``) DPDK bursty-IMIX
  datapath at 24 Gb/s with 4 Zipf-steered queues, 32 DMA tags and
  streaming statistics.  The event wheel, datapath, tag pool and sketch do
  all the work; the host layer does none.
* ``contend-tree-ctl`` — the four-device mix on one IOMMU-enabled E5 host,
  the victim on its own root port and the three bulk devices behind one
  switch, ``wrr`` arbitration with weights tuned against the victim and the
  ``threshold`` controller retuning them.  Only here do arbitration and
  control work, and the host layer serves four devices at once.

Regenerate the committed digests of the default seed (after a change that
is meant to alter simulated results) with::

    PYTHONPATH=src python3 -m perfbench.scenarios
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.bench.contention import (
    FOUR_DEVICE_NAMES,
    ContentionParams,
    four_device_mix,
    run_contention_benchmark,
)
from repro.bench.bandwidth import run_bandwidth_benchmark
from repro.bench.latency import run_latency_benchmark
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.bench.params import BenchmarkKind, BenchmarkParams
from repro.bench.results import BenchmarkResult
from repro.sim.host import HostSystem
from repro.units import KIB, MIB

#: Seed used when none is given; its digests are committed.
DEFAULT_SEED = 7

#: Where the expected digests of :data:`DEFAULT_SEED` live.
EXPECTED_DIGESTS_PATH = Path(__file__).with_name("expected_digests.json")

#: Result keys that carry host timing rather than simulated behaviour.
VOLATILE_KEYS = frozenset({"profile"})

#: dma-sweep grid.  64 KiB sits inside the 64-entry x 4 KiB IOTLB reach and
#: uses the line-accurate cache; 64 MiB exceeds the 15 MiB LLC.  Every
#: system x IOMMU state x kind x window cell runs once, at one of the two
#: transfer sizes, alternating so that each kind, window and IOMMU state
#: runs at both sizes (a half of the full grid that keeps a round short).
DMA_SYSTEMS = ("NFP6000-HSW", "NFP6000-HSW-E3")
DMA_KINDS = (
    BenchmarkKind.LAT_RD,
    BenchmarkKind.LAT_WRRD,
    BenchmarkKind.BW_RD,
    BenchmarkKind.BW_WR,
)
DMA_SIZES = (64, 512)
DMA_WINDOWS = (64 * KIB, 64 * MIB)
#: DMAs per cell, as the quick runs of the IOMMU experiment
#: (``figure-9``: 1500 per bandwidth point and latency sample set).
DMA_TRANSACTIONS = 1500

#: nicsim-link-mq packets per direction.
NICSIM_PACKETS = 16_000

#: contend-tree-ctl sizing, topology and the victim-hostile weights.
CONTEND_VICTIM_PACKETS = 200
CONTEND_AGGRESSOR_PACKETS = 800
CONTEND_TOPOLOGY = "victim=root,aggressor=sw0,bulk2=sw0,streamer=sw0,sw0=root"
CONTEND_WEIGHTS = (1.0, 16.0, 4.0, 4.0)
CONTEND_WINDOW_NS = 50_000.0


Interval = tuple[float, float]


@dataclass
class Outcome:
    """What one round produced.

    Attributes:
        ops: simulated operations completed (DMA transactions or delivered
            packets).
        digest: hash of the simulated statistics (timing removed).
        problems: conservation violations; empty when the round is correct.
        counters: the program's own counters the traced run checks its
            call counts against.
        setup: ``perf_counter`` intervals spent building the simulated
            system before its first operation.
        build / stats: the engine profile's build and statistics phases
            as intervals (empty for dma-sweep, which has no event engine).
    """

    ops: int
    digest: str
    problems: list[str]
    counters: dict[str, int]
    setup: list[Interval]
    build: list[Interval] = field(default_factory=list)
    stats: list[Interval] = field(default_factory=list)


def profiled(run, params) -> tuple[object, list[Interval], list[Interval], int]:
    """Run ``run(params)`` with an engine profile sink.

    Returns the result, the build and statistics phases as intervals (the
    build phase opens the run and the statistics phase closes it) and the
    number of events the engine dispatched.
    """
    profiles: list = []
    start = perf_counter()
    result = run(params, profile_sink=profiles)
    end = perf_counter()
    (profile,) = profiles
    return (
        result,
        [(start, start + profile.build_s)],
        [(end - profile.stats_s, end)],
        profile.events,
    )


def digest(records: object) -> str:
    """SHA-256 of ``records`` (result ``as_dict`` output) minus timing keys."""
    text = json.dumps(_strip(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _strip(value: object) -> object:
    if isinstance(value, dict):
        return {
            key: _strip(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    return value


def path_problems(label: str, path) -> list[str]:
    """Conservation violations of one ``PathResult`` and its queues."""
    problems = []
    accounted = path.delivered_packets + path.drops + path.in_flight
    if path.offered_packets != accounted:
        problems.append(
            f"{label}: offered {path.offered_packets} != delivered "
            f"{path.delivered_packets} + dropped {path.drops} + in-flight "
            f"{path.in_flight}"
        )
    if path.payload_bytes + path.dropped_bytes > path.offered_bytes:
        problems.append(f"{label}: more bytes delivered+dropped than offered")
    for index, queue in enumerate(path.queues or ()):
        problems.extend(path_problems(f"{label}[{index}]", queue))
    return problems


def nicsim_problems(label: str, result) -> list[str]:
    """Conservation violations of one ``NicSimResult``."""
    problems = path_problems(f"{label}.tx", result.tx)
    if result.rx is not None:
        problems.extend(path_problems(f"{label}.rx", result.rx))
    return problems


def delivered(result) -> int:
    """Packets a ``NicSimResult`` delivered in both directions."""
    total = result.tx.delivered_packets
    if result.rx is not None:
        total += result.rx.delivered_packets
    return total


class DmaSweep:
    """The pcie-bench micro-benchmark grid, one fresh host per cell."""

    name = "dma-sweep"

    def __init__(self, seed: int) -> None:
        self.cells = [
            BenchmarkParams(
                kind=kind,
                transfer_size=DMA_SIZES[(k + w + iommu) % len(DMA_SIZES)],
                window_size=window,
                cache_state="host_warm",
                system=system,
                iommu_enabled=bool(iommu),
                transactions=DMA_TRANSACTIONS,
                seed=seed,
            )
            for system in DMA_SYSTEMS
            for iommu in (0, 1)
            for k, kind in enumerate(DMA_KINDS)
            for w, window in enumerate(DMA_WINDOWS)
        ]

    def run_round(self) -> Outcome:
        setup: list[Interval] = []
        records = []
        problems = []
        for params in self.cells:
            result = self.run_cell(params, setup)
            records.append(result.as_dict())
            problems.extend(self.problems(params, result))
        return Outcome(
            ops=sum(params.effective_transactions for params in self.cells),
            digest=digest(records),
            problems=problems,
            counters={"engine.events": 0, "host.accesses": 0, "control.actions": 0},
            setup=setup,
        )

    @staticmethod
    def run_cell(params: BenchmarkParams, setup: list[Interval]) -> BenchmarkResult:
        """Run one cell on a fresh host through the library's runner.

        Appends to ``setup`` the intervals spent building the host and
        preparing its caches for the buffer (``prepare`` runs inside the
        library runner, so it is timed through the host it is given).
        """
        start = perf_counter()
        host = HostSystem.from_profile(
            params.system,
            iommu_enabled=params.iommu_enabled,
            iommu_page_size=params.iommu_page_size,
            seed=params.seed,
        )
        setup.append((start, perf_counter()))
        prepare = host.prepare

        def timed_prepare(*args, **kwargs):
            begin = perf_counter()
            try:
                return prepare(*args, **kwargs)
            finally:
                setup.append((begin, perf_counter()))

        host.prepare = timed_prepare
        if params.kind.is_latency:
            return run_latency_benchmark(params, host=host)
        return run_bandwidth_benchmark(params, host=host)

    @staticmethod
    def problems(params: BenchmarkParams, result: BenchmarkResult) -> list[str]:
        """Every issued DMA must be accounted for in the cell's result."""
        label = params.label()
        problems = []
        if result.latency is not None:
            if result.latency.count != params.effective_transactions:
                problems.append(
                    f"{label}: {result.latency.count} latency samples for "
                    f"{params.effective_transactions} transactions"
                )
        elif not (
            result.bandwidth_gbps is not None
            and math.isfinite(result.bandwidth_gbps)
            and result.bandwidth_gbps > 0
        ):
            problems.append(f"{label}: bandwidth {result.bandwidth_gbps}")
        for rate in (result.cache_hit_rate, result.iotlb_miss_rate):
            if rate is None or not 0.0 <= rate <= 1.0:
                problems.append(f"{label}: rate {rate} outside [0, 1]")
        return problems


class NicsimLinkMq:
    """Uncoupled multi-queue DPDK datapath: the host-layer bypass workload."""

    name = "nicsim-link-mq"

    def __init__(self, seed: int) -> None:
        self.params = NicSimParams(
            model="dpdk",
            workload="bursty-imix",
            offered_load_gbps=24.0,
            packets=NICSIM_PACKETS,
            num_queues=4,
            rss="zipf",
            dma_tags=32,
            retain_samples=False,
            seed=seed,
        )

    def run_round(self) -> Outcome:
        result, build, stats, events = profiled(run_nicsim_benchmark, self.params)
        return Outcome(
            ops=delivered(result),
            digest=digest(result.as_dict()),
            problems=nicsim_problems("nic", result),
            counters={
                "engine.events": events,
                "host.accesses": 0,
                "control.actions": 0,
            },
            setup=build,
            build=build,
            stats=stats,
        )


class ContendTreeCtl:
    """Four devices on a switch tree under closed-loop weight control."""

    name = "contend-tree-ctl"

    def __init__(self, seed: int) -> None:
        self.params = ContentionParams(
            devices=four_device_mix(
                victim_packets=CONTEND_VICTIM_PACKETS,
                aggressor_packets=CONTEND_AGGRESSOR_PACKETS,
            ),
            names=FOUR_DEVICE_NAMES,
            system="NFP6000-HSW",
            iommu_enabled=True,
            arbiter="wrr",
            weights=CONTEND_WEIGHTS,
            topology=CONTEND_TOPOLOGY,
            controller="threshold",
            control_window_ns=CONTEND_WINDOW_NS,
            seed=seed,
        )

    def run_round(self) -> Outcome:
        result, build, stats, events = profiled(run_contention_benchmark, self.params)
        problems = []
        for device in result.devices:
            problems.extend(nicsim_problems(device.name, device.result))
        return Outcome(
            ops=sum(delivered(device.result) for device in result.devices),
            digest=digest(result.as_dict()),
            problems=problems,
            counters={
                "engine.events": events,
                "host.accesses": sum(
                    device.result.host.accesses for device in result.devices
                ),
                "control.actions": len(result.control_actions),
            },
            setup=build,
            build=build,
            stats=stats,
        )


WORKLOADS = {
    workload.name: workload for workload in (DmaSweep, NicsimLinkMq, ContendTreeCtl)
}


def expected_digests() -> dict[str, str]:
    """The committed digests of :data:`DEFAULT_SEED`, by workload."""
    return json.loads(EXPECTED_DIGESTS_PATH.read_text())


if __name__ == "__main__":
    digests = {
        name: workload(DEFAULT_SEED).run_round().digest
        for name, workload in WORKLOADS.items()
    }
    EXPECTED_DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests, indent=2))

"""Tests of the benchmark itself: probe isolation, digests, wrappers, names."""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

import pytest

from perfbench.harness import END_TO_END, PER_LAYER, main
from perfbench.layers import TIMED, LayerTracer
from perfbench.scenarios import (
    DEFAULT_SEED,
    WORKLOADS,
    DmaSweep,
    digest,
    expected_digests,
)
from repro.bench.bandwidth import run_bandwidth_benchmark
from repro.bench.latency import run_latency_benchmark
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark

HERE = Path(__file__).resolve().parent

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Per workload, a wrapped layer it must call (the layer it stresses).
STRESSED = {
    "dma-sweep": "rc.read",
    "nicsim-link-mq": "sketch.add",
    "contend-tree-ctl": "arb.request",
}


def test_probe_imports_only_the_standard_library():
    tree = ast.parse((HERE / "probe.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "the probe must not import benchmark modules"
            imported.add(node.module.split(".")[0])
    assert imported - {"__future__"} <= set(sys.stdlib_module_names)
    assert "repro" not in imported


def test_digest_ignores_profile_and_timing_fields():
    params = NicSimParams(model="dpdk", workload="imix", packets=300, seed=3)
    plain = run_nicsim_benchmark(params)
    profiles: list = []
    profiled = run_nicsim_benchmark(params, profile_sink=profiles)
    assert "profile" in profiled.as_dict() and "profile" not in plain.as_dict()
    assert digest(profiled.as_dict()) == digest(plain.as_dict())
    changed = dict(plain.as_dict(), duration_ns=plain.duration_ns + 1.0)
    assert digest(changed) != digest(plain.as_dict())


@pytest.mark.parametrize("kind", ["LAT_WRRD", "BW_RD"])
def test_timed_dma_cell_matches_the_plain_library_runner(kind):
    """Timing set-up through the host leaves the cell's result unchanged."""
    cells = [cell for cell in DmaSweep(seed=5).cells if cell.kind.value == kind]
    params = cells[-1].with_(transactions=40)
    assert params.iommu_enabled
    setup: list = []
    timed = DmaSweep.run_cell(params, setup)
    plain = (
        run_latency_benchmark(params)
        if params.kind.is_latency
        else run_bandwidth_benchmark(params)
    )
    assert timed.as_dict() == plain.as_dict()
    assert len(setup) == 2 and all(start <= end for start, end in setup)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_leave_results_bit_identical(name):
    """Default seed matches the committed digest, another seed differs, and
    a traced round reproduces the untraced digest with consistent counts."""
    default = WORKLOADS[name](DEFAULT_SEED).run_round()
    assert default.problems == []
    assert default.digest == expected_digests()[name]

    workload = WORKLOADS[name](DEFAULT_SEED + 1)
    untraced = workload.run_round()
    assert untraced.digest != default.digest

    tracer = LayerTracer()
    with tracer:
        traced = workload.run_round()
    assert traced.digest == untraced.digest
    assert traced.problems == []
    assert tracer.cross_check(traced.counters) == []
    assert tracer.stats[STRESSED[name]].calls > 0


def test_metric_names_are_well_formed_and_declared():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {metric["name"] for metric in declared["end_to_end"]} == set(END_TO_END)
    assert {metric["name"] for metric in declared["per_layer"]} == set(PER_LAYER)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        unit = (END_TO_END | PER_LAYER)[metric["name"]]
        assert metric["unit"] == unit


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_with_its_unit(trace, capsys):
    argv = ["--workload", "nicsim-link-mq", "--seconds", "0.5", "--trace", str(trace)]
    code = main(argv)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected
    if trace:
        assert result["metrics"]["engine.events"]["value"] > 0
        assert result["metrics"]["host.access_calls"]["value"] == 0


def test_every_timed_layer_is_wrapped_and_restored():
    saved = {
        (cls, method): cls.__dict__[method]
        for entries in TIMED.values()
        for cls, method in entries
    }
    with LayerTracer():
        for (cls, method), original in saved.items():
            assert cls.__dict__[method] is not original
    for (cls, method), original in saved.items():
        assert cls.__dict__[method] is original

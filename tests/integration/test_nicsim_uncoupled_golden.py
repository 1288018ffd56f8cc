"""Golden-output test for the uncoupled (``system=None``) NIC datapath.

``nicsim_uncoupled_seeded.json`` pins seeded runs with no host model: the
flat ``host_read_latency_ns`` read round trip, the wire-completion tag
release of posted writes and the ``mmio_read_latency_ns`` pointer reads
of the kernel driver.  The cells cover the DPDK and kernel models, a
single-queue retained run and a 4-queue Zipf-steered run with DMA tags and
streaming statistics, RX backpressure on, and rings shallow enough to make
TX wait and RX drop.  ``scripts/check_goldens.py`` holds the same runs to
bit-identity.

To regenerate after an intentional behaviour change::

    golden = json.loads(GOLDEN_PATH.read_text())
    golden["result"] = run_golden(golden)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark

from test_nicsim_golden import assert_deep_close

GOLDEN_PATH = (
    Path(__file__).parent.parent / "golden" / "nicsim_uncoupled_seeded.json"
)


def run_golden(golden: dict) -> list[dict]:
    """Run every pinned cell; ``as_dict`` records in order."""
    return [
        run_nicsim_benchmark(NicSimParams.from_dict(data)).as_dict()
        for data in golden["params"]
    ]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestUncoupledGolden:
    def test_params_cover_the_uncoupled_datapath(self, golden):
        cells = [NicSimParams.from_dict(data) for data in golden["params"]]
        assert [params.as_dict() for params in cells] == golden["params"]
        assert all(params.system is None for params in cells)
        assert {params.model for params in cells} == {
            "Modern NIC (DPDK driver)",
            "Modern NIC (kernel driver)",
        }
        assert any(
            params.num_queues == 1 and params.retain_samples for params in cells
        )
        assert any(
            params.num_queues == 4
            and params.rss == "zipf"
            and params.dma_tags is not None
            and not params.retain_samples
            for params in cells
        )
        assert any(params.rx_backpressure for params in cells)

    def test_pinned_runs_reach_every_branch(self, golden):
        results = golden["result"]
        # The kernel model's interrupts and MMIO pointer reads are in play.
        assert any("kernel" in result["model"] for result in results)
        # Tags ran out and requests queued for them.
        assert any(
            result.get("tags") and result["tags"]["waited"] > 0
            for result in results
        )
        # A full TX ring made packets wait; a full RX ring dropped them.
        assert any(
            result["tx"]["ring"]["max_occupancy"] == result["tx"]["ring"]["depth"]
            for result in results
        )
        assert any(result["rx"]["drops"] > 0 for result in results)
        # With backpressure on, a full RX ring stalls instead of dropping.
        for data, result in zip(golden["params"], results):
            if data["rx_backpressure"]:
                ring = result["rx"]["ring"]
                assert ring["max_occupancy"] == ring["depth"]
                assert result["rx"]["drops"] == 0

    def test_seeded_runs_match_checked_in_records(self, golden):
        assert_deep_close(run_golden(golden), golden["result"])

"""Golden-output test for the Xeon E3 heavy-tail regime (Figure 6).

``dma_e3_seeded.json`` pins seeded LAT_RD, LAT_WRRD and BW_WR runs on
``NFP6000-HSW-E3`` with the IOMMU on, over a 64 KiB window (line-accurate
cache) and a 64 MiB window (statistical cache).  The E3 profile draws its
root-complex jitter from :class:`~repro.sim.noise.HeavyTailNoise`, so this
is the only golden that covers the exponential component and the rare
power-management stalls.  ``scripts/check_goldens.py`` holds the same runs
to bit-identity.

To regenerate after an intentional behaviour change::

    golden = json.loads(GOLDEN_PATH.read_text())
    golden["result"] = run_golden(golden)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.params import BenchmarkKind, BenchmarkParams
from repro.bench.runner import BenchmarkRunner
from repro.sim.host import FAITHFUL_CACHE_LINE_LIMIT
from repro.sim.noise import HeavyTailNoise
from repro.sim.profiles import get_profile
from repro.units import CACHELINE_BYTES

from test_nicsim_golden import assert_deep_close

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "dma_e3_seeded.json"


def run_golden(golden: dict) -> list[dict]:
    """Run every pinned cell on a fresh host; ``as_dict`` records in order."""
    cells = [BenchmarkParams.from_dict(data) for data in golden["params"]]
    return [result.as_dict() for result in BenchmarkRunner().run_all(cells)]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestE3Golden:
    def test_params_cover_the_e3_regime(self, golden):
        cells = [BenchmarkParams.from_dict(data) for data in golden["params"]]
        assert [params.as_dict() for params in cells] == golden["params"]
        assert {params.system for params in cells} == {"NFP6000-HSW-E3"}
        assert all(params.iommu_enabled for params in cells)
        assert {params.kind for params in cells} == {
            BenchmarkKind.LAT_RD,
            BenchmarkKind.LAT_WRRD,
            BenchmarkKind.BW_WR,
        }
        lines = {params.window_size // CACHELINE_BYTES for params in cells}
        # One window per cache model.
        assert min(lines) <= FAITHFUL_CACHE_LINE_LIMIT < max(lines)

    def test_heavy_tail_stall_branch_fires(self, golden):
        noise = get_profile("NFP6000-HSW-E3").noise
        assert isinstance(noise, HeavyTailNoise)
        for data, result in zip(golden["params"], golden["result"]):
            if data["kind"] == "LAT_RD":
                assert result["latency"]["max"] > noise.stall_min_ns

    def test_seeded_runs_match_checked_in_records(self, golden):
        assert_deep_close(run_golden(golden), golden["result"])

"""Golden-output tests for arbitrated shared-host contention runs.

``contention_schemes_seeded.json`` pins eleven short seeded
:class:`ContentionParams` runs: each arbitration scheme (``fcfs``, ``rr``,
``wrr``, ``age``, ``sliced``) on the flat noisy-neighbour pair and on the
four-device switch tree ``victim=root,aggressor=sw0,bulk2=sw0,
streamer=sw0,sw0=root``, plus one tree run under the ``threshold``
controller.  Grant order decides every wait and completion time in these
records, so any change to arbitration, the tree's store-and-forward
ascent or its credit flow control shows up here.
``scripts/check_goldens.py`` holds the same runs to bit identity.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.sim.engine import ARBITER_SCHEMES
from repro.sim.fabric import ContentionResult

from test_nicsim_golden import assert_deep_close

GOLDEN_PATH = (
    Path(__file__).parent.parent / "golden" / "contention_schemes_seeded.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _label(data: dict) -> str:
    shape = "tree" if "topology" in data else "flat"
    controller = data.get("controller", "static")
    return f"{data['arbiter']}-{shape}-{controller}"


CASES = [
    pytest.param(params, result, id=_label(params))
    for params, result in zip(GOLDEN["params"], GOLDEN["result"])
]


def test_golden_covers_every_scheme_on_both_shapes_and_a_controller():
    labels = {_label(data) for data in GOLDEN["params"]}
    for scheme in ARBITER_SCHEMES:
        assert f"{scheme}-flat-static" in labels
        assert f"{scheme}-tree-static" in labels
    assert "wrr-tree-threshold" in labels
    controlled = GOLDEN["result"][-1]
    assert controlled["control_actions"], "the controller never acted"


@pytest.mark.parametrize("params, result", CASES)
def test_seeded_contention_matches_checked_in_record(params, result):
    # To regenerate after an intentional behaviour change, rerun each
    # ContentionParams.from_dict(params) and store run.as_dict().
    restored = ContentionParams.from_dict(params)
    assert restored.as_dict() == params
    assert_deep_close(run_contention_benchmark(restored).as_dict(), result)


def test_golden_records_round_trip_through_dict():
    for result in GOLDEN["result"]:
        restored = ContentionResult.from_dict(result)
        assert_deep_close(restored.as_dict(), result)

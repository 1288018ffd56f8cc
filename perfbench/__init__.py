"""Machine-calibrated, layer-separated benchmark of the exact simulation engine.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, metrics and calibration.
"""

"""One benchmark for the analyzer's three entry points.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line last; see README.md for
the workloads, the metrics and the layer-to-end-to-end map.
"""

"""The repository benchmark: four closed-loop scenario workloads.

``python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints its metrics; see ``repobench/README.md``.
"""

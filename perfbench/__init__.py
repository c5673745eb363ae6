"""refrank benchmark: seeded workloads run through the public API.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout. See ``run.py``.
"""

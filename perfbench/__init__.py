"""The repository benchmark: seeded workloads timed end to end and layer by layer.

Run it from the root of a checkout with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""

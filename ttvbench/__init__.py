"""Time-to-verdict benchmark for the de-synchronization flow.

Run ``python3 ttvbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``ttvbench/README.md``.
"""

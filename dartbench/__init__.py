"""The repository benchmark: end-to-end and per-layer cost of the DART datapath.

Run one workload with ``python3 dartbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see
``dartbench/README.md`` for the workloads, metrics and measured spread.
"""

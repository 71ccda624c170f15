"""Benchmark of the neuralfield convergence sweeps and check suites.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see README.md in this directory.
"""

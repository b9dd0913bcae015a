"""Benchmark of the CIM multiplier simulator on both clocks.

``python3 bench/run.py`` runs one workload; ``python -m bench`` runs
all four in fresh processes and compares result files.  See
``bench/README.md``.
"""

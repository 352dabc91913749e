"""End-to-end benchmark of TP-GrGAD: ``fit``, ``serve`` and ``stream`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

The module docstring of :mod:`perfbench.run` says what each workload and
metric measures.
"""

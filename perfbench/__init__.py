"""Seeded end-to-end and per-layer benchmark of the repro solvers.

Entry point: ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""

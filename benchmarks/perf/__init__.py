"""Repeatable end-to-end and per-layer performance benchmark.

``python -m benchmarks.perf`` runs the five workloads of
:mod:`benchmarks.perf.workloads`; ``benchmarks/perf/run.py`` is the
fixed-duration entry point named by ``BENCHMARK.json``.  See README.md.
"""

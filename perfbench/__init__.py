"""Benchmark harness for cyclotwist; run perfbench/run.py."""

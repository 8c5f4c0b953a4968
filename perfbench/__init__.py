"""Benchmark for tca; run it with ``python3 perfbench/run.py``."""

"""Benchmark of the reachtrack closed loop and map build; see run.py."""

"""Benchmark of the xlmimo command line; see README.md."""

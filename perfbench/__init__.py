"""Benchmark of refpack: seeded workloads run through its CLI; see README.md."""

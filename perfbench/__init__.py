"""Benchmark for aldyn: seeded workloads, known-answer checks and tracing."""

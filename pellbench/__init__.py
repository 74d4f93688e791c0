"""Benchmark of the pellrsa package: four workloads, RSA baselines, traced per-layer run."""

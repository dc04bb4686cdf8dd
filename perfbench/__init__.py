"""Repository benchmark: workloads, tracing and the metric catalogue."""

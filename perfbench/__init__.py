"""mdconv benchmark: workloads, exactness checks, tracing and the runner."""

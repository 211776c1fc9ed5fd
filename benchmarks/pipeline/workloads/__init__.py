"""The four workloads; each module exposes ``run(cfg) -> Outcome``."""

"""The pipeline benchmark: four workloads timed end to end, with
per-layer attribution from a separate traced run.  See README.md."""

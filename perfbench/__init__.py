"""Calibrated, per-layer benchmark of the R-Storm reproduction; see
``run.py`` for the workloads, the metrics and how to run it."""

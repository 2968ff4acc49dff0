"""Timing-hygiene helpers for the repository's benchmark (``perfbench/``).

:mod:`.runner` holds the git-revision probe and the guard that
refuses to time a run while observation overhead (forced span capture or a
live telemetry subscriber) would perturb it.
"""

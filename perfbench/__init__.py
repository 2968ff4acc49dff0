"""The repository's end-to-end benchmark: layered scenario-sweep workloads.

Run it from the repository root::

    python3 perfbench/run.py --workload offline --seed 0 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which layer
metric should move which end-to-end metric on which workload.
"""

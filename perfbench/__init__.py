"""The repository's benchmark: four workloads, end-to-end and per-layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the one entry point (see ``run.py``).  Each timed
iteration runs in a fresh interpreter (``perfbench/child.py``); the
workloads and their output checks live in ``workloads.py``, the span
recorder for traced runs in ``tracing.py`` and the statistics in
``harness.py``.  ``spec.json`` records why each workload exists, what
its ops and pages are, and which layer metric should move which
end-to-end metric.
"""

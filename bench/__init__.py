"""The repo benchmark: six named workloads, end-to-end + per-layer metrics.

Everything here measures ``repro`` from the outside; nothing under ``src/``
is edited or imported at package-import time.  See ``bench/README.md``.
"""

"""Make the benchmark's modules importable as ``run``, ``tracer``, ``checks``.

These tests sit outside the default ``testpaths``; run them with
``python -m pytest perfbench/tests -q`` from the repository root.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

"""The benchmark's traced run wraps program names from outside the package.

``benchmarks/tracer.install`` looks each name up with ``vars(owner)[attr]``,
so every probed function or method must stay defined on the module or class
the probe names, not inherited or moved.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_probe_resolves_on_its_own_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    layers = importlib.import_module("layers")
    for probe in layers.probes():
        assert callable(vars(probe.owner)[probe.attr]), (probe.owner, probe.attr)

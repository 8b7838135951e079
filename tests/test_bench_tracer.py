"""The traced benchmark still finds every program attribute it wraps."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        worker = importlib.import_module("worker")
        tracer = worker.install_tracer(lambda: 0.0)
        installed = list(tracer._installed)
        assert installed
        for module, attr, original in installed:
            assert getattr(module, attr) is not original
        tracer.uninstall()
        for module, attr, original in installed:
            assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    finally:
        for name in ("worker", "speed", "tracer"):
            sys.modules.pop(name, None)

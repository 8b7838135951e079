"""The benchmark's own calls into the program still run and pass its checks.

bench/worker.py calls ``estimator.fit`` with ``workers=1`` and
``se_params="auto"`` or ``(2, 3)``, and the ``forestdens mc`` command with a
``workers`` flag and config key; a change to those names fails every bench
run, so the calls are made here once, through the worker's own code.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("worker")
    finally:
        for name in ("worker", "speed", "tracer"):
            sys.modules.pop(name, None)


def still_clock():
    return SimpleNamespace(clocks=lambda: (0.0, 0.0, 0.0))


def test_warm_up_fits_with_a_pair_and_takes_an_se(worker):
    worker.warm_up()


@pytest.mark.parametrize("name", ["fit_mu_se", "mc_d1_smoke"])
def test_workload_op_passes_its_checks(worker, tmp_path, name):
    workload = worker.WORKLOADS[name](1, tmp_path, still_clock())
    problems, digest = workload.check(workload.op())
    assert problems == []
    assert digest

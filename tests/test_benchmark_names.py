"""perfbench/tracing.py wraps zepl's module attributes by name; a traced
benchmark run fails (AttributeError, exit 1) once one of them is renamed or
removed, so the names are checked here, at tier-1."""

import importlib
from pathlib import Path

from zepl import oracle


def test_the_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    original = oracle.integrate_radial
    try:
        tracer.install()  # AttributeError on a name that is gone
        assert oracle.integrate_radial is not original
    finally:
        tracer.uninstall()
    assert oracle.integrate_radial is original

"""The benchmark tracer must still find every name it wraps."""

import importlib.util
from pathlib import Path

from akltmqc import cli, contraction, logic, router, sampler

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (
    cli,
    contraction,
    logic,
    router,
    sampler,
    contraction.DenseEngine,
    contraction.TracedEngine,
)


def _bindings():
    return {owner: dict(vars(owner)) for owner in OWNERS}


def test_tracer_install_and_uninstall():
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
    finally:
        tracer.uninstall()
    assert during != before
    assert during[logic]["compile_plan"] is not logic.compile_plan
    assert _bindings() == before

"""The benchmark's tracer (``perfbench/tracing.py``) still finds every layer
boundary it patches, and puts each one back."""

import importlib.util
from pathlib import Path

import partycred

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_finds_and_uninstall_restores_every_boundary():
    tracer = _tracing_module().Tracer()
    tracer.install(partycred)  # AttributeError if a traced name is gone
    patches = list(tracer._patches)
    try:
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_tracer_counts_one_min_switch_call_of_l_by_m_cells():
    inst = partycred.generate_random(
        seed=5, num_candidates=5, num_parties=7, size_range=(1, 4),
        rule_spec="plurality", direction="min",
    ).instance
    tracer = _tracing_module().Tracer()
    tracer.install(partycred)
    try:
        result = partycred.solve_instance(inst)
    finally:
        tracer.uninstall()
    assert result.solver == "min_scoring"
    assert tracer.calls["kernels.min_switch_counts"] >= 1
    assert tracer.counts["kernels.min_switch_counts.cells"] == 7 * 5

"""The benchmark's tracer (``perfbench/tracing.py``) still finds every layer
boundary it patches, and puts each one back."""

import importlib.util
import json
import sys
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


def test_tracer_counts_one_max_r_approval_call_on_the_poly_route():
    inst = partycred.generate_random(
        seed=5, num_candidates=5, num_parties=7, size_range=(1, 4),
        rule_spec="plurality", direction="max",
    ).instance
    tracer = _tracing_module().Tracer()
    tracer.install(partycred)
    try:
        result = partycred.solve_instance(inst)
    finally:
        tracer.uninstall()
    assert result.solver == "max_r_approval"
    assert tracer.calls["poly.max_r_approval"] == 1
    assert tracer.counts["solve.route.poly"] == 1


def test_tracer_counts_one_borda_max_solve_on_the_poly_route():
    inst = partycred.generate_random(
        seed=5, num_candidates=5, num_parties=7, size_range=(1, 4),
        rule_spec="borda", direction="max",
    ).instance
    tracer = _tracing_module().Tracer()
    tracer.install(partycred)
    try:
        result = partycred.solve_instance(inst)
    finally:
        tracer.uninstall()
    assert result.solver == "max_linear"
    assert tracer.counts["solve.route.poly"] == 1
    assert tracer.calls["search.exact_search"] == 0


def _traced_pipeline(texts):
    """A tracer that has seen each instance text go through the pipeline
    as the traced benchmark runs a pool entry."""
    tracer = _tracing_module().Tracer()
    tracer.install(partycred)
    try:
        for text in texts:
            parsed = partycred.instance_io.parse_instance(text)
            result = partycred.solve.solve_instance(parsed.instance, "auto")
            assert partycred.parties.check_witness(parsed.instance, result.witness,
                                                   k=result.value).ok
            partycred.instance_io.result_to_json(parsed, result, 0)
    finally:
        tracer.uninstall()
    return tracer


def test_poly_large_classes_record_every_required_boundary():
    """One small instance of each poly-large class, run as the traced
    benchmark runs a pool entry, records a call or count at every boundary
    that ``perfbench/spec.json`` requires of poly-large, so that
    ``--trace 1`` cannot lose one unnoticed."""
    spec = json.loads((TRACING.parent / "spec.json").read_text())
    required = spec["workloads"]["poly-large"]["required_boundaries"]
    classes = [
        ("plurality", "min", 50, 30), ("borda", "min", 50, 30), ("condorcet", "min", 50, 5),
        ("plurality", "max", 6, 8), ("approval:2", "max", 5, 8),
    ]
    texts = [
        partycred.serialize_instance(partycred.generate_random(
            seed=0, num_candidates=m, num_parties=l, size_range=(1, 4),
            rule_spec=rule, direction=direction,
        ))
        for rule, direction, m, l in classes
    ]
    tracer = _traced_pipeline(texts)
    recorded = {
        name: tracer.calls[name.removesuffix(".calls")] if name.endswith(".calls")
        else tracer.counts[name]
        for name in required
    }
    assert all(recorded.values()), recorded


def test_tracer_counts_the_poly_large_pools_min_switch_cells(monkeypatch):
    """Traced as ``--trace 1`` runs them, poly-large's 10 pool entries make 6
    ``min_switch_counts`` calls over 533,800 cells: the tracer reads the
    kernel's leads and need at their fixed positions on the real pool."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", TRACING.parent / "instances.py"
    )
    pools = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, pools)  # its dataclasses look it up
    spec.loader.exec_module(pools)
    size = pools.pool_size("poly-large")
    assert size == 10
    tracer = _traced_pipeline(pools.instance_text("poly-large", i) for i in range(size))
    assert tracer.calls["kernels.min_switch_counts"] == 6
    assert tracer.counts["kernels.min_switch_counts.cells"] == 533_800
    assert tracer.counts["solve.route.poly"] == 10

"""Public namespace: every export resolves, once, and removed names stay gone."""

import importlib
import importlib.util
import pathlib

import minimaxreg as mr

REMOVED = ("LinearProgram", "SolverConfig", "build_primal", "simplex_solve",
           "solve_cramer", "TrueParametersUnknownError", "check_bn_divergence",
           "midrange_fit", "group_extremes", "GroupExtremes", "EmptyGroupError")

# Removed names that lived only in their module, as module.attribute paths.
REMOVED_FROM_MODULES = (
    "evt.check_bn_divergence", "evt.DIVERGES", "evt.BOUNDED", "evt.CONVERGES_TO_ZERO",
    "closed_form.midrange_fit", "model.group_extremes", "model.GroupExtremes",
    "model.ReplicatedDesign.group_index", "errors.EmptyGroupError", "lp._level_max_min",
    "lp._solve_group", "lp._sorted_basis_point", "lp._scheme", "lp._solve_observations",
    "lp._solve_working_set", "lp._group_dual_system", "lp._optimum", "lp._degenerate",
    "lp._minimax_rows",
)


def test_every_export_resolves():
    missing = [name for name in mr.__all__ if not hasattr(mr, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(mr.__all__) == len(set(mr.__all__))


def test_removed_names_are_not_exported():
    assert [name for name in REMOVED if name in mr.__all__ or hasattr(mr, name)] == []


def test_removed_names_are_gone_from_their_modules():
    present = []
    for path in REMOVED_FROM_MODULES:
        module_name, *attrs = path.split(".")
        target = importlib.import_module(f"minimaxreg.{module_name}")
        for attr in attrs:
            target = getattr(target, attr, None)
        if target is not None:
            present.append(path)
    assert present == []


def test_every_traced_benchmark_target_resolves():
    # The benchmark binds its tracer over these names; deleting one must fail
    # here, not only in a traced benchmark run.
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _, _ in tracer.TARGETS:
        target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert missing == []

"""Public namespace: every export resolves, once, and removed names stay gone."""

import importlib
import importlib.util
import pathlib

import minimaxreg as mr

REMOVED = ("LinearProgram", "SolverConfig", "build_primal", "simplex_solve",
           "solve_cramer", "TrueParametersUnknownError")


def test_every_export_resolves():
    missing = [name for name in mr.__all__ if not hasattr(mr, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(mr.__all__) == len(set(mr.__all__))


def test_removed_names_are_not_exported():
    assert [name for name in REMOVED if name in mr.__all__ or hasattr(mr, name)] == []


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

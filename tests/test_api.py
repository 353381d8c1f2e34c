"""Public namespace: every export resolves, once, and removed names stay gone."""

import minimaxreg as mr

REMOVED = ("LinearProgram", "build_primal", "simplex_solve")


def test_every_export_resolves():
    missing = [name for name in mr.__all__ if not hasattr(mr, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(mr.__all__) == len(set(mr.__all__))


def test_removed_names_are_not_exported():
    assert [name for name in REMOVED if name in mr.__all__ or hasattr(mr, name)] == []

"""Shared fixtures."""

import pytest

from minimaxreg import simplex


@pytest.fixture
def one_pivot_simplex(monkeypatch):
    """Cap every simplex solve at no pivots, so LP fits hit the iteration limit.

    A fit whose closed-form start is already optimal still succeeds: the
    start is priced before the cap is tested.
    """
    solve = simplex.solve_standard_form
    monkeypatch.setattr(simplex, "solve_standard_form",
                        lambda A, b, c, **kwargs: solve(A, b, c, **{**kwargs, "max_iter": 0}))

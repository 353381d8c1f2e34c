"""Exact oracle for minimax fitting, in rational arithmetic.

Every double is a rational number, so ``fractions.Fraction`` evaluates a
float theta's residuals and a small design's optimum with no rounding at
all, whatever the scales of its columns.
"""

from fractions import Fraction


def _exact(values):
    return [Fraction(float(v)) for v in values]


def exact_residuals(X, y, theta):
    """y_j - x_j.theta for every row, exactly."""
    th = _exact(theta)
    return [Fraction(float(yj)) - sum(x * t for x, t in zip(_exact(row), th))
            for row, yj in zip(X, y)]


def _det(rows):
    """Determinant of a square matrix of Fractions, by elimination."""
    a = [list(r) for r in rows]
    det = Fraction(1)
    for i in range(len(a)):
        pivot = next((p for p in range(i, len(a)) if a[p][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * p for x, p in zip(a[r], a[i])]
    return det


def exact_delta(X, y):
    """The exact optimum of a design of q + 1 rows of rank q.

    Its dual is max v.y over v = u - u' with X'v = 0 and |v|_1 <= 1, and
    X'v = 0 holds on a line spanned by lambda, lambda_i = (-1)^i det(X
    without row i). So Delta* = |lambda.y| / |lambda|_1.
    """
    rows = [_exact(r) for r in X]
    if len(rows) != len(rows[0]) + 1:
        raise ValueError(f"exact_delta needs q + 1 rows, got {len(rows)} of {len(rows[0])}")
    lam = [(-1) ** i * _det(rows[:i] + rows[i + 1:]) for i in range(len(rows))]
    if not any(lam):
        raise ValueError("exact_delta needs a design of rank q")
    return abs(sum(l * v for l, v in zip(lam, _exact(y)))) / sum(abs(l) for l in lam)

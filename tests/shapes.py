"""The coordinate layout of a ``MatrixShape``, written out entry by entry:
an independent reference for ``MatrixShape.matrix`` and ``from_matrix``,
shared by the test modules."""


def var_index(shape, i, j):
    """Flat coordinate index of entry (i, j) of ``shape``: row by row, the
    canonical upper half (with the diagonal for symmetric, without it for
    skew)."""
    n = shape.nrows
    if shape.kind == "generic":
        return i * shape.ncols + j
    i, j = min(i, j), max(i, j)
    if shape.kind == "symmetric":
        return i * n - i * (i - 1) // 2 + (j - i)
    return i * n - i * (i + 1) // 2 + (j - i - 1)

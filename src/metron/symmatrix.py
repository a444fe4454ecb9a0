"""Small matrices of scalar expressions.

Matrices are nested tuples of expression nodes, shape (rows)(cols).
Inverses are formed as adjugate over determinant, which keeps every
coefficient inside the closed-form expression class; cofactor expansion
bounds this to rank <= 4, which covers every chart handled here.
"""
from __future__ import annotations

from . import expr as ex

__all__ = [
    "as_expr",
    "as_matrix",
    "zeros_mat",
    "identity_mat",
    "mat_add",
    "mat_sub",
    "mat_neg",
    "mat_mul",
    "mat_transpose",
    "mat_diff",
    "det_expr",
    "adjugate_mat",
    "inverse_mat",
    "MAX_INVERSE_RANK",
]

MAX_INVERSE_RANK = 4


def as_expr(entry) -> ex.ScalarExpression:
    if isinstance(entry, ex.ScalarExpression):
        return entry
    if isinstance(entry, str):
        return ex.parse(entry)
    return ex.const(float(entry))


def as_matrix(entries) -> tuple:
    """Normalise a 2-D iterable of expressions/strings/numbers to tuples."""
    return tuple(tuple(as_expr(v) for v in row) for row in entries)


def zeros_mat(rows: int, cols: int | None = None) -> tuple:
    cols = rows if cols is None else cols
    return tuple(tuple(ex.ZERO for _ in range(cols)) for _ in range(rows))


def identity_mat(r: int) -> tuple:
    return tuple(
        tuple(ex.ONE if i == j else ex.ZERO for j in range(r)) for i in range(r)
    )


def mat_add(a, b):
    return tuple(
        tuple(ex.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_sub(a, b):
    return tuple(
        tuple(ex.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_neg(a):
    return tuple(tuple(ex.neg(x) for x in row) for row in a)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ex.ZERO
            for k in range(inner):
                acc = ex.add(acc, ex.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def mat_diff(a, i: int):
    return tuple(tuple(ex.differentiate(x, i) for x in row) for row in a)


def det_expr(a) -> ex.ScalarExpression:
    r = len(a)
    if r == 1:
        return a[0][0]
    if r == 2:
        return ex.sub(ex.mul(a[0][0], a[1][1]), ex.mul(a[0][1], a[1][0]))
    det = ex.ZERO
    for j in range(r):
        minor = tuple(
            tuple(a[i][k] for k in range(r) if k != j) for i in range(1, r)
        )
        term = ex.mul(a[0][j], det_expr(minor))
        det = ex.add(det, term) if j % 2 == 0 else ex.sub(det, term)
    return det


def adjugate_mat(a):
    r = len(a)
    if r == 1:
        return ((ex.ONE,),)
    cof = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            minor = tuple(
                tuple(a[p][q] for q in range(r) if q != j)
                for p in range(r)
                if p != i
            )
            c = det_expr(minor)
            cof[i][j] = c if (i + j) % 2 == 0 else ex.neg(c)
    # adjugate = transpose of the cofactor matrix
    return tuple(tuple(cof[j][i] for j in range(r)) for i in range(r))


def inverse_mat(a):
    r = len(a)
    if r > MAX_INVERSE_RANK:
        raise ValueError(
            f"symbolic inverse supported for rank <= {MAX_INVERSE_RANK}, got {r}"
        )
    det = det_expr(a)
    adj = adjugate_mat(a)
    return tuple(tuple(ex.div(adj[i][j], det) for j in range(r)) for i in range(r))

"""Combining representations in the dual form.

Two kernel matrices over the same documents are fused by elementwise
summation, which is equivalent to concatenating the (implicit) feature
vectors of the two representations.
"""
from __future__ import annotations

from .errors import KernelMismatchError
from .string_kernel import KernelMatrix


def _first_divergent(a: tuple[str, ...], b: tuple[str, ...]) -> str:
    for x, y in zip(a, b):
        if x != y:
            return f"{x!r} vs {y!r}"
    return f"{a[len(b)]!r} vs <missing>" if len(a) > len(b) else f"<missing> vs {b[len(a)]!r}"


def sum_kernels(k1: KernelMatrix, k2: KernelMatrix) -> KernelMatrix:
    """Elementwise sum of two aligned kernel matrices."""
    if k1.shape != k2.shape:
        raise KernelMismatchError(f"kernel shapes differ: {k1.shape} vs {k2.shape}")
    if k1.row_ids != k2.row_ids:
        raise KernelMismatchError(
            f"row ids diverge at {_first_divergent(k1.row_ids, k2.row_ids)}"
        )
    if k1.col_ids != k2.col_ids:
        raise KernelMismatchError(
            f"column ids diverge at {_first_divergent(k1.col_ids, k2.col_ids)}"
        )
    return KernelMatrix(values=k1.values + k2.values, row_ids=k1.row_ids, col_ids=k1.col_ids)

"""Combining representations in the dual form.

Two kernel matrices over the same documents are fused by elementwise
summation, which is equivalent to concatenating the (implicit) feature
vectors of the two representations.
"""
from __future__ import annotations

from .errors import KernelMismatchError
from .string_kernel import KernelMatrix, first_divergent


def sum_kernels(k1: KernelMatrix, k2: KernelMatrix) -> KernelMatrix:
    """Elementwise sum of two aligned kernel matrices."""
    if k1.shape != k2.shape:
        raise KernelMismatchError(f"kernel shapes differ: {k1.shape} vs {k2.shape}")
    if k1.row_ids != k2.row_ids:
        raise KernelMismatchError(
            f"row ids diverge at {first_divergent(k1.row_ids, k2.row_ids)}"
        )
    if k1.col_ids != k2.col_ids:
        raise KernelMismatchError(
            f"column ids diverge at {first_divergent(k1.col_ids, k2.col_ids)}"
        )
    return KernelMatrix(values=k1.values + k2.values, row_ids=k1.row_ids, col_ids=k1.col_ids)

"""nu-SVR trained in the dual over a precomputed kernel matrix.

The solver is sequential minimal optimization with first-order
maximal-violating-pair selection.  Variables live in two blocks (the
positive and negative dual weights of each training row); both equality
constraints of the nu formulation are preserved by only ever moving mass
between two variables of the same block.

Scaling convention: with regularization ``c`` over ``r`` rows, every dual
variable is bounded by ``c / r`` and the total absolute-coefficient budget
is ``c * nu``.  This is the scaled formulation in which the nu-property
reads directly as fractions of rows; it matches the reference dual solver
at regularization ``c / r``.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import KaesError, KernelMismatchError, check_number
from .string_kernel import KernelMatrix

logger = logging.getLogger(__name__)

_REFRESH_INTERVAL = 1 << 16  # recompute u = K (a - a*) to cancel drift
_ETA_FLOOR = 1e-12


@dataclass(frozen=True)
class SvrConfig:
    """Solver hyperparameters; defaults are the standard operating point."""

    c: float = 1000.0
    nu: float = 0.1
    kkt_tolerance: float = 1e-3
    max_iterations: int = 10_000_000

    def __post_init__(self):
        for name in ("c", "nu", "kkt_tolerance"):
            check_number(name, getattr(self, name))
        check_number("max_iterations", self.max_iterations, integer=True)
        if not 0 < self.c < math.inf:
            raise KaesError(f"c must be positive and finite, got {self.c}")
        if not (0 < self.nu <= 1):
            raise KaesError(f"nu must be in (0, 1], got {self.nu}")
        if not 0 < self.kkt_tolerance < math.inf:
            raise KaesError(f"kkt_tolerance must be positive and finite, got {self.kkt_tolerance}")
        if not 0 <= self.max_iterations < 2**64:  # a model file stores it as a u64
            raise KaesError(f"max_iterations must be in [0, 2**64), got {self.max_iterations}")


@dataclass
class SvrModel:
    """Trained dual model: signed coefficients per training row plus bias."""

    coefficients: np.ndarray  # alpha_i - alpha*_i, one per training row
    bias: float
    epsilon_star: float
    train_ids: tuple[str, ...]
    config: SvrConfig
    converged: bool
    iterations: int

    @property
    def support_mask(self) -> np.ndarray:
        return self.coefficients != 0.0

    @property
    def support_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, kept in zip(self.train_ids, self.support_mask) if kept)


def _check_square_symmetric(kernel: KernelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Return the training kernel's values and a C-contiguous copy of their
    transpose, whose row i is column i of the kernel."""
    if kernel.row_ids != kernel.col_ids:
        raise KernelMismatchError("training kernel must be square with matching id lists")
    values = kernel.values
    if not np.isfinite(values).all():
        raise KaesError("training kernel contains non-finite values")
    cols = np.ascontiguousarray(values.T)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    asymmetry = values - cols
    if float(np.abs(asymmetry, out=asymmetry).max(initial=0.0)) > 1e-12 * scale:
        raise KernelMismatchError("training kernel is not symmetric")
    return values, cols


def _class_level(g: np.ndarray, beta: np.ndarray, bound: float) -> float:
    """Optimal KKT level of one variable block.

    Free variables pin the level exactly (averaged); otherwise it is the
    midpoint of the interval allowed by the variables stuck at the bounds.
    """
    free = (beta > 0.0) & (beta < bound)
    if free.any():
        return float(g[free].mean())
    at_upper = beta >= bound
    at_lower = beta <= 0.0
    lo = float(g[at_upper].max()) if at_upper.any() else -np.inf
    hi = float(g[at_lower].min()) if at_lower.any() else np.inf
    if np.isinf(lo) and np.isinf(hi):
        return 0.0
    if np.isinf(lo):
        return hi
    if np.isinf(hi):
        return lo
    return (lo + hi) / 2.0


def train_nu_svr(
    kernel: KernelMatrix,
    y: np.ndarray,
    config: SvrConfig = SvrConfig(),
) -> SvrModel:
    """Solve the nu-SVR dual over a precomputed kernel.

    Stops when the larger of the two per-block KKT violations drops below
    ``config.kkt_tolerance``, or after ``config.max_iterations`` pair
    updates (the model is then returned with ``converged=False`` and a
    warning).  The solver is deterministic.
    """
    values, cols = _check_square_symmetric(kernel)
    r = values.shape[0]
    if r == 0:
        raise KaesError("training kernel is empty")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (r,):
        raise KaesError(f"targets have shape {y.shape}, expected ({r},)")
    if not np.isfinite(y).all():
        raise KaesError("targets must be finite")

    bound = config.c / r
    budget = config.c * config.nu
    # Row 0 holds a, row 1 holds a*.  Greedy feasible start: both blocks
    # carry budget/2, filled in id order.  The blocks are identical, so
    # u = K (a - a*) starts at exactly zero.
    beta = np.empty((2, r))
    beta[:] = np.clip(budget / 2.0 - np.arange(r) * bound, 0.0, bound)
    u = np.zeros(r)
    # g[0] = u - y is the gradient of block a and g[1] = -g[0] that of a*.
    # up (low) holds g, bit for bit, where a variable may still rise (fall)
    # and +inf (-inf) elsewhere.  Only the two variables of an update can
    # reach or leave a bound, so only their mask and sentinel entries change.
    g = np.empty((2, r))
    g_a, g_s = g
    can_up = beta < bound
    can_low = beta > 0.0
    up = np.full((2, r), np.inf)
    low = np.full((2, r), -np.inf)
    # The update reads kernel columns as rows of cols: a strided column read
    # misses cache on every row, and the kernel is only symmetric to within
    # rounding, so its own rows will not do.
    step = np.empty(r)

    tol = config.kkt_tolerance
    iterations = 0
    converged = False
    while iterations < config.max_iterations:
        np.subtract(u, y, out=g_a)
        np.negative(g_a, out=g_s)
        np.putmask(up, can_up, g)
        np.putmask(low, can_low, g)
        i_up_a, i_up_s = up.argmin(axis=1).tolist()
        i_low_a, i_low_s = low.argmax(axis=1).tolist()
        viol_a = low.item(0, i_low_a) - up.item(0, i_up_a)
        viol_s = low.item(1, i_low_s) - up.item(1, i_up_s)

        if max(viol_a, viol_s) < tol:
            converged = True
            break

        if viol_a >= viol_s:
            k, i, j, sign = 0, i_up_a, i_low_a, 1.0
        else:
            k, i, j, sign = 1, i_up_s, i_low_s, -1.0

        eta = values.item(i, i) + values.item(j, j) - 2.0 * values.item(i, j)
        if eta < _ETA_FLOOR:
            eta = _ETA_FLOOR
        beta_i = beta.item(k, i)
        beta_j = beta.item(k, j)
        room_i = bound - beta_i
        room_j = beta_j
        delta = min((g.item(k, j) - g.item(k, i)) / eta, room_i, room_j)
        beta_i = bound if delta == room_i else beta_i + delta
        beta_j = 0.0 if delta == room_j else beta_j - delta
        beta[k, i] = beta_i
        beta[k, j] = beta_j
        can_up[k, i] = beta_i < bound
        can_low[k, i] = beta_i > 0.0
        can_up[k, j] = beta_j < bound
        can_low[k, j] = beta_j > 0.0
        up[k, i] = up[k, j] = np.inf  # putmask refills the entries still free
        low[k, i] = low[k, j] = -np.inf

        np.subtract(cols[i], cols[j], out=step)
        step *= sign * delta
        u += step
        iterations += 1
        if iterations % _REFRESH_INTERVAL == 0:
            u = values @ (beta[0] - beta[1])

    if not converged:
        logger.warning(
            "nu-SVR stopped at max_iterations=%d with KKT violation still above %g",
            config.max_iterations,
            tol,
        )

    g_a = u - y
    rho_a = _class_level(g_a, beta[0], bound)
    rho_s = _class_level(-g_a, beta[1], bound)
    return SvrModel(
        coefficients=beta[0] - beta[1],
        bias=(rho_s - rho_a) / 2.0,
        epsilon_star=-(rho_a + rho_s) / 2.0,
        train_ids=kernel.row_ids,
        config=config,
        converged=converged,
        iterations=iterations,
    )


def predict(model: SvrModel, kernel: KernelMatrix) -> np.ndarray:
    """Predict unit-scale scores for the rows of a test-by-train kernel block.

    Column ids must match the model's training rows (or exactly its support
    rows); any misalignment is an error, not a silent reorder.
    """
    if kernel.col_ids == model.train_ids:
        coef = model.coefficients
    elif kernel.col_ids == model.support_ids:
        coef = model.coefficients[model.support_mask]
    else:
        expected = model.train_ids
        got = kernel.col_ids
        detail = "column count differs" if len(expected) != len(got) else next(
            (f"{a!r} vs {b!r}" for a, b in zip(got, expected) if a != b), "unknown"
        )
        raise KernelMismatchError(
            f"kernel columns are not aligned with the model's training rows ({detail})"
        )
    return kernel.values @ coef + model.bias

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
from dataclasses import dataclass

import numpy as np

from .errors import KaesError, KernelMismatchError
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
        if self.c <= 0:
            raise KaesError(f"c must be positive, got {self.c}")
        if not (0 < self.nu <= 1):
            raise KaesError(f"nu must be in (0, 1], got {self.nu}")
        if self.kkt_tolerance <= 0:
            raise KaesError(f"kkt_tolerance must be positive, got {self.kkt_tolerance}")


@dataclass
class SvrModel:
    """Trained dual model: signed coefficients per training row plus bias."""

    coefficients: np.ndarray  # alpha_i - alpha*_i, one per training row
    bias: float
    epsilon_star: float
    train_ids: tuple[str, ...]
    config: SvrConfig
    seed: int
    converged: bool
    iterations: int

    @property
    def support_mask(self) -> np.ndarray:
        return self.coefficients != 0.0

    @property
    def support_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, kept in zip(self.train_ids, self.support_mask) if kept)


def _check_square_symmetric(kernel: KernelMatrix) -> np.ndarray:
    if kernel.row_ids != kernel.col_ids:
        raise KernelMismatchError("training kernel must be square with matching id lists")
    values = kernel.values
    if not np.isfinite(values).all():
        raise KaesError("training kernel contains non-finite values")
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    if float(np.abs(values - values.T).max(initial=0.0)) > 1e-12 * scale:
        raise KernelMismatchError("training kernel is not symmetric")
    return values


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
    seed: int = 0,
) -> SvrModel:
    """Solve the nu-SVR dual over a precomputed kernel.

    Stops when the larger of the two per-block KKT violations drops below
    ``config.kkt_tolerance``, or after ``config.max_iterations`` pair
    updates (the model is then returned with ``converged=False`` and a
    warning).  The solver itself is deterministic; ``seed`` is only stored
    in the model.
    """
    values = _check_square_symmetric(kernel)
    y = np.asarray(y, dtype=np.float64)
    r = values.shape[0]
    if y.shape != (r,):
        raise KaesError(f"targets have shape {y.shape}, expected ({r},)")
    if not np.isfinite(y).all():
        raise KaesError("targets must be finite")

    bound = config.c / r
    budget = config.c * config.nu
    # Greedy feasible start: both blocks carry budget/2, filled in id order.
    # The blocks are identical, so u = K (a - a*) starts at exactly zero.
    beta_a = np.clip(budget / 2.0 - np.arange(r) * bound, 0.0, bound)
    beta_s = beta_a.copy()
    u = np.zeros(r)

    tol = config.kkt_tolerance
    iterations = 0
    converged = False
    while iterations < config.max_iterations:
        g_a = u - y

        up_a = np.where(beta_a < bound, g_a, np.inf)
        i_up_a = int(np.argmin(up_a))
        low_a = np.where(beta_a > 0.0, g_a, -np.inf)
        i_low_a = int(np.argmax(low_a))
        viol_a = low_a[i_low_a] - up_a[i_up_a]

        g_s = -g_a
        up_s = np.where(beta_s < bound, g_s, np.inf)
        i_up_s = int(np.argmin(up_s))
        low_s = np.where(beta_s > 0.0, g_s, -np.inf)
        i_low_s = int(np.argmax(low_s))
        viol_s = low_s[i_low_s] - up_s[i_up_s]

        if max(viol_a, viol_s) < tol:
            converged = True
            break

        if viol_a >= viol_s:
            beta, g, i, j, sign = beta_a, g_a, i_up_a, i_low_a, 1.0
        else:
            beta, g, i, j, sign = beta_s, g_s, i_up_s, i_low_s, -1.0

        eta = values[i, i] + values[j, j] - 2.0 * values[i, j]
        if eta < _ETA_FLOOR:
            eta = _ETA_FLOOR
        room_i = bound - beta[i]
        room_j = beta[j]
        delta = min((g[j] - g[i]) / eta, room_i, room_j)
        if delta == room_i:
            beta[i] = bound
        else:
            beta[i] += delta
        if delta == room_j:
            beta[j] = 0.0
        else:
            beta[j] -= delta

        u += (sign * delta) * (values[:, i] - values[:, j])
        iterations += 1
        if iterations % _REFRESH_INTERVAL == 0:
            u = values @ (beta_a - beta_s)

    if not converged:
        logger.warning(
            "nu-SVR stopped at max_iterations=%d with KKT violation still above %g",
            config.max_iterations,
            tol,
        )

    g_a = u - y
    rho_a = _class_level(g_a, beta_a, bound)
    rho_s = _class_level(-g_a, beta_s, bound)
    return SvrModel(
        coefficients=beta_a - beta_s,
        bias=(rho_s - rho_a) / 2.0,
        epsilon_star=-(rho_a + rho_s) / 2.0,
        train_ids=kernel.row_ids,
        config=config,
        seed=seed,
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

"""Nonlinear least-squares extraction of kinetic rate constants, a block at a time.

One Levenberg-Marquardt solver (damped Gauss-Newton, analytic Jacobians) runs
one loop for a (B, P) block of parameter rows. Every row keeps its own damping,
iteration count and convergence tests and leaves the block when it finishes.
Residuals and Jacobians are evaluated ROWS_PER_SLICE live rows at a time, and
each row keeps only its squared norm and normal equations, so the loop's
temporaries are bounded by the slice while its per-row state is a few hundred
bytes. A row's result depends only on its own data, never on the rest of the
block or on the slicing, and bitwise so: each segment is a C-ordered column
range, so every row sum runs over one row's contiguous samples in one order;
Jacobians are parameter-major, one C-ordered (rows, n) block per parameter, so
every entry of a row's normal equations is one dot product of two contiguous
vectors; and the batched solves are evaluated one row at a time.

The solver drives a two-segment fit of a (B, n) block of sensorgrams sharing
one time grid: the dissociation tail is fitted first for (baseline, amplitude,
k_d), then the association segment for (amplitude, k_s) with the baseline held
fixed. The phases decouple in the piecewise-exponential model, so the
sequential fit is better conditioned than a joint one. The fit holds one
segment's columns of the block at a time, and computes its warm starts in the
same slices as its residuals. Rates are parameterized as exp(u) to keep them
positive on noisy data. ``FitResult.converged`` is the one rule for whether a
fit is usable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .kinetics import close_ka

_TINY = np.finfo(float).tiny
# Levenberg-Marquardt settings, read by ``lm_solve`` at call time
MAX_ITERS = 200  # per row and segment solve
STEP_TOLERANCE = 1e-10  # step norm against the norm of x, whose entries carry mixed units
DAMPING_INIT = 1e-3
GRAD_TOLERANCE = 1e-8  # cosine of residual against Jacobian columns
COST_TOLERANCE = 1e-12  # relative decrease of the squared norm
# smallest relative noise a fit resolves: a sample is stored to a relative eps,
# which adds a share (eps / noise)^2 to each squared residual, and the cost test
# stops on a relative decrease of COST_TOLERANCE, so the noise must exceed
# eps / sqrt(COST_TOLERANCE) = 2.2e-10
NOISE_FLOOR = np.finfo(float).eps / np.sqrt(COST_TOLERANCE)
# live rows per residual evaluation: bounds the (P + 1, rows, n) workspace of a
# segment solve whatever the number of rows that share its loop
ROWS_PER_SLICE = 128


@dataclass(frozen=True)
class LMSolution:
    """Per-row outcome of one block solve: the fitted parameters ``x`` (B, P).

    ``converged`` and ``iterations`` hold one plain Python value per row, so a
    solve's record serialises as JSON.
    """

    x: np.ndarray
    converged: tuple[bool, ...]
    iterations: tuple[int, ...]


def _row_products(r: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row squared norm, J^T J and J^T r of residuals (k, n) and Jacobians (P, k, n).

    Every entry is one dot product of two contiguous n-vectors of one row, the
    one ``np.dot`` takes for that pair, whatever the number of rows k; J^T J
    forms each unordered pair once and mirrors it, so it is exactly symmetric.
    """
    n_params = len(J)
    if r.shape[1] < n_params:
        raise ValueError("need at least as many data points as parameters")
    JtJ = np.empty((len(r), n_params, n_params))
    for a in range(n_params):
        for b in range(a, n_params):
            JtJ[:, a, b] = JtJ[:, b, a] = np.vecdot(J[a], J[b])
    return np.vecdot(r, r), JtJ, np.vecdot(J, r).T


def _products(fun, X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row squared norm (k,), J^T J (k, P, P) and J^T r (k, P) of ``fun`` at X (k, P).

    ``fun`` sees at most ROWS_PER_SLICE rows at a time, and a slice's residuals
    and Jacobians are read before the next slice is evaluated.
    """
    k, n_params = X.shape
    ssq, JtJ, g = np.empty(k), np.empty((k, n_params, n_params)), np.empty((k, n_params))
    for start in range(0, k, ROWS_PER_SLICE):
        part = slice(start, start + ROWS_PER_SLICE)
        ssq[part], JtJ[part], g[part] = _row_products(*fun(X[part], rows[part]))
    return ssq, JtJ, g


def _solve_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each A[i] x = b[i]; rows whose matrix is singular come back flagged False."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        solved = np.ones(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                x[i] = np.linalg.solve(A[i : i + 1], b[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[i] = False
        return x, solved


def lm_solve(
    fun: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0,
) -> LMSolution:
    """Minimize ||r_b(x_b)||^2 for every row b of a (B, P) parameter block.

    ``fun(X, rows) -> (R, J)`` evaluates the residuals R (k, n) and the
    parameter-major Jacobians J (P, k, n) of the block rows ``rows`` at their
    parameters ``X`` (k, P): each J[a] is one C-contiguous (k, n) block, a
    contiguous n-vector per row. ``fun`` sees at most ROWS_PER_SLICE rows per
    call, and R and J are read before its next call, so it may return views
    of one buffer that it overwrites each time. Levenberg-Marquardt with
    multiplicative damping on the scaled normal equations; a step is accepted
    only if it strictly decreases the row's residual norm. A row that runs out
    of iterations or damping keeps its last iterate, flagged non-converged.
    Each row keeps only its squared norm and normal equations (J^T J and
    J^T r), from the start and from each accepted step; a rejected step reuses
    them.
    """
    x = np.array(x0, dtype=float, ndmin=2)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial parameters must be finite")
    n_rows, n_params = x.shape
    ssq, JtJ, g = _products(fun, x, np.arange(n_rows))
    lam = np.full(n_rows, DAMPING_INIT)
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    running = np.ones(n_rows, dtype=bool)
    on_diag = np.arange(n_params)

    while True:
        live = np.flatnonzero(running & (iterations < MAX_ITERS))
        if not live.size:
            break
        g_live, diag = g[live], JtJ[live][:, on_diag, on_diag]
        # scale-free first-order test: residual nearly orthogonal to every column
        col_norm = np.sqrt(np.maximum(diag, 0.0)) * np.maximum(np.sqrt(ssq[live]), _TINY)[:, None]
        cosine = np.where(col_norm > 0.0, np.abs(g_live) / np.maximum(col_norm, _TINY), 0.0).max(axis=1)
        stationary = (ssq[live] == 0.0) | (cosine < GRAD_TOLERANCE)
        converged[live[stationary]] = True
        running[live[stationary]] = False
        go = ~stationary
        live, g_live, diag, cosine = live[go], g_live[go], diag[go], cosine[go]
        if not live.size:
            continue
        # floor the damping scale so rank-deficient Jacobians stay solvable
        diag = np.maximum(diag, 1e-12 * np.maximum(diag.max(axis=1), 1.0)[:, None])
        iterations[live] += 1
        damped = JtJ[live]
        damped[:, on_diag, on_diag] += lam[live, None] * diag
        step, solved = _solve_rows(damped, -g_live)
        # the next evaluation is the loop's memory peak: hold only what it needs
        del damped, g_live, diag

        singular = live[~solved]
        lam[singular] *= 10.0
        running[singular[lam[singular] > 1e14]] = False

        live, step, cosine = live[solved], step[solved], cosine[solved]
        x_new = x[live] + step
        # each row's products are its own, so selecting after the product
        # equals forming them from the selected rows
        ssq_new, JtJ_new, g_new = _products(fun, x_new, live)
        better = np.isfinite(ssq_new) & (ssq_new < ssq[live])

        moved = live[better]
        reduction = ssq[moved] - ssq_new[better]
        x[moved], ssq[moved] = x_new[better], ssq_new[better]
        JtJ[moved], g[moved] = JtJ_new[better], g_new[better]
        del x_new, ssq_new, JtJ_new, g_new
        lam[moved] = np.maximum(lam[moved] / 3.0, 1e-14)
        small_step = np.linalg.norm(step[better], axis=1) <= STEP_TOLERANCE * (
            np.linalg.norm(x[moved], axis=1) + STEP_TOLERANCE
        )
        done = small_step | (reduction <= COST_TOLERANCE * np.maximum(ssq[moved], _TINY))
        converged[moved[done]] = True
        running[moved[done]] = False

        stuck = live[~better]
        lam[stuck] *= 7.0
        exhausted = lam[stuck] > 1e14
        # damping exhausted: accept the iterate as stationary if no descent
        # direction remains, otherwise flag non-convergence
        converged[stuck[exhausted]] = cosine[~better][exhausted] < 1e-4
        running[stuck[exhausted]] = False

    return LMSolution(
        x=x,
        converged=tuple(converged.tolist()),
        iterations=tuple(iterations.tolist()),
    )


@dataclass(frozen=True)
class FitResult:
    """Rate constants fitted to a block of sensorgrams, one (B,) array per field.

    ``converged`` marks the usable fits: both segment solves converged, no rate
    is pinned at the exp(+/-50) clip, and k_a, k_s and k_d are all finite.
    ``iterations`` is the total over the two segment solves, each individually
    bounded by MAX_ITERS.
    """

    k_s: np.ndarray
    k_d: np.ndarray
    k_a: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


_LN_RATE_LIMIT = 50.0  # rates confined to exp(+/-50); a solution pinned here is garbage


def _rate_from_log(ln_k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates and at-boundary flags; boundary solutions count as failed fits."""
    clipped = np.clip(ln_k, -_LN_RATE_LIMIT, _LN_RATE_LIMIT)
    return np.exp(clipped), np.abs(clipped) >= _LN_RATE_LIMIT - 0.1


def _row_means(Y: np.ndarray) -> np.ndarray:
    # a contiguous copy makes each row's sum the same pairwise sum for any block
    return np.ascontiguousarray(Y).mean(axis=1)


def _tail_amplitude(Y: np.ndarray, level: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``start`` where nonzero, else the largest excursion of Y from ``level`` (1 if flat)."""
    span = np.abs(Y - level[:, None]).max(axis=1)
    return np.where(start == 0.0, np.where(span == 0.0, 1.0, span), start)


def _dissociation_warm_start(t_rel: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Deterministic (baseline, amplitude, ln k_d) rows for b + A*exp(-k_d*t_rel)."""
    n_tail = max(3, Y.shape[1] // 10)
    b0 = _row_means(Y[:, -n_tail:])
    a0 = _tail_amplitude(Y, b0, Y[:, 0] - b0)
    z = (Y - b0[:, None]) / a0[:, None]
    # slope of log z against t over each row's samples with z > 0.02: a
    # degree-1 least-squares line through the kept samples only
    keep = z > 0.02
    count = keep.sum(axis=1)
    fitted = count >= 2
    t_mean = (keep * t_rel).sum(axis=1) / np.maximum(count, 1)
    dt = np.where(keep, t_rel - t_mean[:, None], 0.0)
    sxx = np.square(dt).sum(axis=1)
    sxy = (dt * np.log(np.where(keep, z, 1.0))).sum(axis=1)
    k0 = np.where(fitted, -sxy / np.where(fitted, sxx, 1.0), 0.0)
    k0 = np.where(np.isfinite(k0) & (k0 > 0), k0, 3.0 / max(t_rel[-1], 1.0))
    return np.column_stack([b0, a0, np.log(k0)])


def _association_warm_start(t: np.ndarray, Y: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """Deterministic (amplitude, ln k_s) rows for b + A*(1 - exp(-k_s*t))."""
    n_tail = max(3, Y.shape[1] // 10)
    a0 = _tail_amplitude(Y, baseline, _row_means(Y[:, -n_tail:]) - baseline)
    crossed = Y - baseline[:, None] >= 0.632 * a0[:, None]
    t63 = np.where(crossed.any(axis=1), t[crossed.argmax(axis=1)], 0.0)
    k0 = np.where(t63 > 0, 1.0 / np.where(t63 > 0, t63, 1.0), 3.0 / max(float(t[-1]), 1.0))
    return np.column_stack([a0, np.log(k0)])


def _sliced(start: Callable[..., np.ndarray], *blocks: np.ndarray) -> np.ndarray:
    """``start`` of ROWS_PER_SLICE rows of every block at a time, its rows stacked."""
    return np.concatenate([
        start(*(block[i : i + ROWS_PER_SLICE] for block in blocks))
        for i in range(0, len(blocks[0]), ROWS_PER_SLICE)
    ])


def _workspace(n_params: int, n_rows: int, n: int) -> np.ndarray:
    """One segment solve's buffer for R and J: (1 + P, slice rows, n), R first."""
    return np.empty((1 + n_params, min(ROWS_PER_SLICE, n_rows), n))


def _fit_dissociation(t_rel: np.ndarray, Y_d: np.ndarray) -> LMSolution:
    """(baseline, amplitude, ln k_d) rows of b + A*exp(-k_d*t_rel) fitted to Y_d."""
    work = _workspace(3, len(Y_d), t_rel.size)
    work[1] = 1.0  # the baseline's Jacobian, the same at every evaluation

    def resid(X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        R, J = work[0, : len(X)], work[1:, : len(X)]
        b, a, ln_kd = X[:, 0:1], X[:, 1:2], X[:, 2:3]
        kd = np.exp(np.clip(ln_kd, -_LN_RATE_LIMIT, _LN_RATE_LIMIT))
        decay = np.exp(np.multiply(-kd, t_rel, out=J[1]), out=J[1])
        np.multiply(-a * kd, t_rel, out=J[2])
        J[2] *= decay
        np.multiply(a, decay, out=R)  # b + a*decay - y
        R += b
        R -= Y_d[rows]
        return R, J

    return lm_solve(resid, _sliced(partial(_dissociation_warm_start, t_rel), Y_d))


def _fit_association(t: np.ndarray, Y_a: np.ndarray, baseline: np.ndarray) -> LMSolution:
    """(amplitude, ln k_s) rows of baseline + A*(1 - exp(-k_s*t)) fitted to Y_a."""
    work = _workspace(2, len(Y_a), t.size)

    def resid(X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        R, J = work[0, : len(X)], work[1:, : len(X)]
        a_inf, ln_ks = X[:, 0:1], X[:, 1:2]
        ks = np.exp(np.clip(ln_ks, -_LN_RATE_LIMIT, _LN_RATE_LIMIT))
        decay = np.exp(np.multiply(-ks, t, out=R), out=R)
        rise = np.subtract(1.0, decay, out=J[0])
        np.multiply(a_inf * ks, t, out=J[1])
        J[1] *= decay
        np.multiply(a_inf, rise, out=R)  # baseline + a_inf*rise - y, over decay
        R += baseline[rows, None]
        R -= Y_a[rows]
        return R, J

    return lm_solve(resid, _sliced(partial(_association_warm_start, t), Y_a, baseline))


def split_at_tau(t: np.ndarray, tau_s: float) -> int:
    """Index of the first sample of ``t`` at or after tau, where the dissociation segment starts.

    ValueError unless at least 2 samples precede tau and at least 3 follow from it.
    """
    i_tau = int(np.searchsorted(t, tau_s))
    if t.size - i_tau < 3 or i_tau < 2:
        raise ValueError("samples must span both kinetic phases")
    return i_tau


def fit_sensorgrams(t, Y, tau_s: float, L0: float) -> FitResult:
    """Fit each row of a (B, n) block of (possibly noisy) sensorgrams on the grid ``t``.

    ``Y`` is a (B, n) array, or a block that builds its rows a column range at
    a time: an object with ``shape`` (B, n) and ``columns(start, stop)``, which
    returns samples start:stop of every row as a new C-ordered array. Only one
    segment's columns are held at a time. Rows may live in transmittance space
    or measurement space; the rate constants are invariant under affine
    rescaling of the signal. The switch time tau is experiment-controlled and
    therefore not fitted.
    """
    t = np.asarray(t, dtype=float)
    if hasattr(Y, "columns"):
        shape, columns = Y.shape, Y.columns
    else:
        # C order makes each segment a column range: a row sum then runs over
        # one row's samples in one order (a boolean column selection is
        # Fortran-ordered, and numpy would sum it down the columns, in an order
        # set by the block size)
        Y = np.ascontiguousarray(Y, dtype=float)
        shape, columns = Y.shape, lambda start, stop: Y[:, start:stop]
    if len(shape) != 2 or shape[1:] != t.shape:
        raise ValueError("t and each sensorgram must have equal length")
    if shape[0] < 1:
        raise ValueError("need at least one sensorgram to fit")
    if not np.all(np.diff(t) > 0):
        raise ValueError("t must be increasing")
    i_tau = split_at_tau(t, tau_s)

    sol_d = _fit_dissociation(t[i_tau:] - tau_s, columns(i_tau, t.size))
    k_d, kd_pinned = _rate_from_log(sol_d.x[:, 2])
    sol_a = _fit_association(t[:i_tau], columns(0, i_tau), sol_d.x[:, 0])
    k_s, ks_pinned = _rate_from_log(sol_a.x[:, 1])
    k_a = close_ka(k_s, k_d, L0)
    usable = np.array(sol_d.converged) & np.array(sol_a.converged) & ~(kd_pinned | ks_pinned)

    return FitResult(
        k_s=k_s,
        k_d=k_d,
        k_a=k_a,
        converged=usable & np.isfinite(k_a) & np.isfinite(k_s) & np.isfinite(k_d),
        iterations=np.add(sol_d.iterations, sol_a.iterations),
    )

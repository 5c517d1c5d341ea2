"""Nonlinear least-squares extraction of kinetic rate constants, a block at a time.

One Levenberg-Marquardt solver (damped Gauss-Newton, analytic Jacobians) runs
on a (B, P) block of parameter rows at once. Every row keeps its own damping,
iteration count and convergence tests and leaves the block when it finishes,
so a row's result depends only on its own data, never on the rest of the block.

The solver drives a two-segment fit of a (B, n) block of sensorgrams sharing
one time grid: the dissociation tail is fitted first for (baseline, amplitude,
k_d), then the association segment for (amplitude, k_s) with the baseline held
fixed. The phases decouple in the piecewise-exponential model, so the
sequential fit is better conditioned than a joint one. Rates are parameterized
as exp(u) to keep them positive on noisy data. ``FitResult.converged`` is the
one rule for whether a fit is usable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kinetics import close_ka

_TINY = np.finfo(float).tiny
# Levenberg-Marquardt settings, read by ``lm_solve`` at call time
MAX_ITERS = 200  # per row and segment solve
STEP_TOLERANCE = 1e-10  # relative step size
DAMPING_INIT = 1e-3
GRAD_TOLERANCE = 1e-8  # cosine of residual against Jacobian columns
COST_TOLERANCE = 1e-12  # relative decrease of the squared norm


@dataclass(frozen=True)
class LMSolution:
    """Per-row outcome of one block solve: ``x`` is (B, P), ``residual_norm`` (B,).

    ``converged`` and ``iterations`` hold one plain Python value per row, so a
    solve's record serialises as JSON.
    """

    x: np.ndarray
    converged: tuple[bool, ...]
    iterations: tuple[int, ...]
    residual_norm: np.ndarray


def _sum_squares(r: np.ndarray) -> np.ndarray:
    # one dot product per row, the same one ``r @ r`` takes for a single row
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


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

    ``fun(X, rows) -> (R, J)`` evaluates the residuals (k, n) and Jacobians
    (k, n, P) of the block rows ``rows`` at their parameters ``X`` (k, P).
    Levenberg-Marquardt with multiplicative damping on the scaled normal
    equations; a step is accepted only if it strictly decreases the row's
    residual norm. A row that runs out of iterations or damping keeps its last
    iterate, flagged non-converged.
    """
    x = np.array(x0, dtype=float, ndmin=2)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial parameters must be finite")
    n_rows, n_params = x.shape
    r, J = fun(x, np.arange(n_rows))
    if r.shape[1] < n_params:
        raise ValueError("need at least as many data points as parameters")
    ssq = _sum_squares(r)
    lam = np.full(n_rows, DAMPING_INIT)
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    running = np.ones(n_rows, dtype=bool)
    on_diag = np.arange(n_params)

    while True:
        live = np.flatnonzero(running & (iterations < MAX_ITERS))
        if not live.size:
            break
        J_live = J[live]
        Jt = J_live.transpose(0, 2, 1)
        g = (Jt @ r[live][:, :, None])[:, :, 0]
        JtJ = Jt @ J_live
        diag = JtJ[:, on_diag, on_diag]
        # scale-free first-order test: residual nearly orthogonal to every column
        col_norm = np.sqrt(np.maximum(diag, 0.0)) * np.maximum(np.sqrt(ssq[live]), _TINY)[:, None]
        cosine = np.where(col_norm > 0.0, np.abs(g) / np.maximum(col_norm, _TINY), 0.0).max(axis=1)
        stationary = (ssq[live] == 0.0) | (cosine < GRAD_TOLERANCE)
        converged[live[stationary]] = True
        running[live[stationary]] = False
        go = ~stationary
        live, g, JtJ, diag, cosine = live[go], g[go], JtJ[go], diag[go], cosine[go]
        if not live.size:
            continue
        # floor the damping scale so rank-deficient Jacobians stay solvable
        diag = np.maximum(diag, 1e-12 * np.maximum(diag.max(axis=1), 1.0)[:, None])
        iterations[live] += 1
        JtJ[:, on_diag, on_diag] += lam[live, None] * diag
        step, solved = _solve_rows(JtJ, -g)

        singular = live[~solved]
        lam[singular] *= 10.0
        running[singular[lam[singular] > 1e14]] = False

        live, step, cosine = live[solved], step[solved], cosine[solved]
        x_new = x[live] + step
        r_new, J_new = fun(x_new, live)
        ssq_new = _sum_squares(r_new)
        better = np.isfinite(ssq_new) & (ssq_new < ssq[live])

        moved = live[better]
        reduction = ssq[moved] - ssq_new[better]
        x[moved], r[moved], J[moved], ssq[moved] = x_new[better], r_new[better], J_new[better], ssq_new[better]
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
        residual_norm=np.sqrt(ssq),
    )


@dataclass(frozen=True)
class FitResult:
    """Kinetic parameters extracted from a block of sensorgrams, one (B,) array per field.

    ``converged`` marks the usable fits: both segment solves converged, no rate
    is pinned at the exp(+/-50) clip, and k_a, k_s and k_d are all finite.
    ``iterations`` is the total over the two segment solves, each individually
    bounded by MAX_ITERS.
    """

    k_s: np.ndarray
    k_d: np.ndarray
    k_a: np.ndarray
    baseline: np.ndarray
    amplitude: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual_norm: np.ndarray


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


def fit_sensorgrams(t, Y, tau_s: float, L0: float) -> FitResult:
    """Fit each row of a (B, n) block of (possibly noisy) sensorgrams on the grid ``t``.

    Rows may live in transmittance space or measurement space; the rate
    constants are invariant under affine rescaling of the signal. The switch
    time tau is experiment-controlled and therefore not fitted.
    """
    t = np.asarray(t, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1:] != t.shape:
        raise ValueError("t and each sensorgram must have equal length")
    in_tail = t >= tau_s
    t_d, Y_d = t[in_tail], Y[:, in_tail]
    t_a, Y_a = t[~in_tail], Y[:, ~in_tail]
    if len(t_d) < 3 or len(t_a) < 2:
        raise ValueError("samples must span both kinetic phases")

    t_rel = t_d - tau_s

    def resid_dissociation(X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b, a, ln_kd = X[:, 0:1], X[:, 1:2], X[:, 2:3]
        kd = np.exp(np.clip(ln_kd, -_LN_RATE_LIMIT, _LN_RATE_LIMIT))
        decay = np.exp(-kd * t_rel)
        R = b + a * decay - Y_d[rows]
        J = np.stack([np.ones_like(decay), decay, -a * kd * t_rel * decay], axis=-1)
        return R, J

    sol_d = lm_solve(resid_dissociation, _dissociation_warm_start(t_rel, Y_d))
    baseline = sol_d.x[:, 0]
    k_d, kd_pinned = _rate_from_log(sol_d.x[:, 2])

    def resid_association(X: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a_inf, ln_ks = X[:, 0:1], X[:, 1:2]
        ks = np.exp(np.clip(ln_ks, -_LN_RATE_LIMIT, _LN_RATE_LIMIT))
        decay = np.exp(-ks * t_a)
        R = baseline[rows, None] + a_inf * (1.0 - decay) - Y_a[rows]
        J = np.stack([1.0 - decay, a_inf * ks * t_a * decay], axis=-1)
        return R, J

    sol_a = lm_solve(resid_association, _association_warm_start(t_a, Y_a, baseline))
    k_s, ks_pinned = _rate_from_log(sol_a.x[:, 1])
    k_a = close_ka(k_s, k_d, L0)
    usable = np.array(sol_d.converged) & np.array(sol_a.converged) & ~(kd_pinned | ks_pinned)

    return FitResult(
        k_s=k_s,
        k_d=k_d,
        k_a=k_a,
        baseline=baseline,
        amplitude=sol_a.x[:, 0],
        converged=usable & np.isfinite(k_a) & np.isfinite(k_s) & np.isfinite(k_d),
        iterations=np.add(sol_d.iterations, sol_a.iterations),
        residual_norm=np.hypot(sol_d.residual_norm, sol_a.residual_norm),
    )


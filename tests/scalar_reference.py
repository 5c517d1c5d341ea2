"""The scalar fit path the batched engine in ``qspr.fit`` replaced, kept as its reference.

One Levenberg-Marquardt loop per segment and per sensorgram, with per-row
warm starts (``np.polyfit`` on the log tail). The batched engine keeps this
algorithm, so both must agree on every fitted rate and ``converged`` flag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from qspr.fit import DEFAULT_FIT_CONFIG, FitConfig, FitResult
from qspr.kinetics import close_ka


@dataclass(frozen=True)
class LMSolution:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float


def lm_solve(
    fun: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0,
    cfg: FitConfig = DEFAULT_FIT_CONFIG,
) -> LMSolution:
    """Minimize ||r(x)||^2 where ``fun(x) -> (residuals, jacobian)``.

    Levenberg-Marquardt with multiplicative damping on the scaled normal
    equations; a step is accepted only if it strictly decreases the residual
    norm. Returns the last iterate flagged non-converged if the iteration or
    damping budget runs out.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial parameters must be finite")
    r, J = fun(x)
    if len(r) < len(x):
        raise ValueError("need at least as many data points as parameters")
    ssq = float(r @ r)
    lam = cfg.damping_init
    iterations = 0
    converged = False

    while iterations < cfg.max_iters:
        g = J.T @ r
        JtJ = J.T @ J
        diag = np.diag(JtJ).copy()
        # scale-free first-order test: residual nearly orthogonal to every column
        col_norm = np.sqrt(np.maximum(diag, 0.0)) * max(np.sqrt(ssq), np.finfo(float).tiny)
        cosine = np.where(col_norm > 0.0, np.abs(g) / np.maximum(col_norm, np.finfo(float).tiny), 0.0)
        if ssq == 0.0 or np.max(cosine) < cfg.grad_tolerance:
            converged = True
            break
        # floor the damping scale so rank-deficient Jacobians stay solvable
        diag = np.maximum(diag, 1e-12 * max(diag.max(), 1.0))
        iterations += 1
        try:
            step = np.linalg.solve(JtJ + lam * np.diag(diag), -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > 1e14:
                break
            continue
        x_new = x + step
        r_new, J_new = fun(x_new)
        ssq_new = float(r_new @ r_new)
        if np.isfinite(ssq_new) and ssq_new < ssq:
            reduction = ssq - ssq_new
            x, r, J, ssq = x_new, r_new, J_new, ssq_new
            lam = max(lam / 3.0, 1e-14)
            small_step = np.linalg.norm(step) <= cfg.step_tolerance * (
                np.linalg.norm(x) + cfg.step_tolerance
            )
            if small_step or reduction <= cfg.cost_tolerance * max(ssq, np.finfo(float).tiny):
                converged = True
                break
        else:
            lam *= 7.0
            if lam > 1e14:
                # damping exhausted: accept the iterate as stationary if no
                # descent direction remains, otherwise flag non-convergence
                converged = bool(np.max(cosine) < 1e-4)
                break
    return LMSolution(x=x, converged=converged, iterations=iterations, residual_norm=float(np.sqrt(ssq)))


_LN_RATE_LIMIT = 50.0  # rates confined to exp(+/-50); a solution pinned here is garbage


def _rate_from_log(ln_k: float) -> tuple[float, bool]:
    """Rate and an at-boundary flag; boundary solutions count as failed fits."""
    clipped = float(np.clip(ln_k, -_LN_RATE_LIMIT, _LN_RATE_LIMIT))
    return float(np.exp(clipped)), abs(clipped) >= _LN_RATE_LIMIT - 0.1


def _dissociation_warm_start(t_rel: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Deterministic (baseline, amplitude, k_d) guess for b + A*exp(-k_d*t_rel)."""
    n_tail = max(3, len(y) // 10)
    b0 = float(np.mean(y[-n_tail:]))
    a0 = float(y[0] - b0)
    if a0 == 0.0:
        a0 = float(np.max(np.abs(y - b0))) or 1.0
    z = (y - b0) / a0
    keep = z > 0.02
    if np.count_nonzero(keep) >= 2:
        slope = np.polyfit(t_rel[keep], np.log(z[keep]), 1)[0]
        k0 = -float(slope)
    else:
        k0 = 0.0
    if not np.isfinite(k0) or k0 <= 0:
        k0 = 3.0 / max(t_rel[-1], 1.0)
    return b0, a0, k0


def _association_warm_start(t: np.ndarray, y: np.ndarray, baseline: float) -> tuple[float, float]:
    """Deterministic (amplitude, k_s) guess for b + A*(1 - exp(-k_s*t))."""
    n_tail = max(3, len(y) // 10)
    a0 = float(np.mean(y[-n_tail:]) - baseline)
    if a0 == 0.0:
        a0 = float(np.max(np.abs(y - baseline))) or 1.0
    crossed = np.nonzero(y - baseline >= 0.632 * a0)[0]
    t63 = float(t[crossed[0]]) if crossed.size else 0.0
    k0 = 1.0 / t63 if t63 > 0 else 3.0 / max(float(t[-1]), 1.0)
    return a0, k0


def fit_sensorgram(t, y, tau_s: float, L0: float, cfg: FitConfig = DEFAULT_FIT_CONFIG) -> FitResult:
    """Fit a (possibly noisy) sensorgram and close the association constant.

    ``y`` may live in transmittance space or measurement space; the rate
    constants are invariant under affine rescaling of the signal. The switch
    time tau is experiment-controlled and therefore not fitted.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape:
        raise ValueError("t and y must have equal length")
    in_tail = t >= tau_s
    t_d, y_d = t[in_tail], y[in_tail]
    t_a, y_a = t[~in_tail], y[~in_tail]
    if len(t_d) < 3 or len(t_a) < 2:
        raise ValueError("samples must span both kinetic phases")

    t_rel = t_d - tau_s

    def resid_dissociation(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b, a, ln_kd = p
        kd = np.exp(np.clip(ln_kd, -_LN_RATE_LIMIT, _LN_RATE_LIMIT))
        decay = np.exp(-kd * t_rel)
        r = b + a * decay - y_d
        J = np.stack([np.ones_like(t_rel), decay, -a * kd * t_rel * decay], axis=1)
        return r, J

    b0, a0, kd0 = _dissociation_warm_start(t_rel, y_d)
    sol_d = lm_solve(resid_dissociation, np.array([b0, a0, np.log(kd0)]), cfg)
    baseline, _, ln_kd = sol_d.x
    k_d, kd_pinned = _rate_from_log(ln_kd)

    def resid_association(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a_inf, ln_ks = p
        ks = np.exp(np.clip(ln_ks, -_LN_RATE_LIMIT, _LN_RATE_LIMIT))
        decay = np.exp(-ks * t_a)
        r = baseline + a_inf * (1.0 - decay) - y_a
        J = np.stack([1.0 - decay, a_inf * ks * t_a * decay], axis=1)
        return r, J

    a_inf0, ks0 = _association_warm_start(t_a, y_a, baseline)
    sol_a = lm_solve(resid_association, np.array([a_inf0, np.log(ks0)]), cfg)
    amplitude, ln_ks = sol_a.x
    k_s, ks_pinned = _rate_from_log(ln_ks)

    return FitResult(
        k_s=k_s,
        k_d=k_d,
        k_a=close_ka(k_s, k_d, L0),
        baseline=float(baseline),
        amplitude=float(amplitude),
        converged=sol_d.converged and sol_a.converged and not (kd_pinned or ks_pinned),
        iterations=sol_d.iterations + sol_a.iterations,
        residual_norm=float(np.hypot(sol_d.residual_norm, sol_a.residual_norm)),
    )

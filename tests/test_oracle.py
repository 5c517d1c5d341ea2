"""Truncated-Fock oracle: state construction, loss channels, moment checks."""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply
from scipy.special import xlog1py, xlogy

import qspr
from qspr.oracle import (
    MAX_CUTOFF,
    TruncationError,
    _coherent_amplitudes,
    _thinning_logs,
    _thinning_matrix,
    _tmsd_amplitudes,
    apply_channels,
    build_state,
    oracle_moments,
    verify_closed_forms,
)
from qspr.probes import ProbeKind, ProbeState, delta_M, mean_M


def tmsv_with_r(r: float) -> ProbeState:
    return ProbeState(kind=ProbeKind.TMSV, n_mean=float(np.sinh(r) ** 2))


def tmsd_with(alpha_sq: float, r: float) -> ProbeState:
    g = float(np.cosh(r) ** 2)
    return ProbeState(kind=ProbeKind.TMSD, n_mean=g * alpha_sq + (g - 1.0), g=g)


def sparse_tmsd_amplitudes(alpha: complex, r: float, cutoff: int) -> np.ndarray:
    """Reference: expm_multiply of the full sparse a b - a^dag b^dag on the (cutoff+1)^2 box."""
    d = cutoff + 1
    rows, cols, vals = [], [], []
    sq = np.sqrt(np.arange(d + 1, dtype=float))
    for na in range(d):
        for nb in range(d):
            col = na * d + nb
            if na >= 1 and nb >= 1:  # a b
                rows.append((na - 1) * d + (nb - 1))
                cols.append(col)
                vals.append(sq[na] * sq[nb])
            if na + 1 < d and nb + 1 < d:  # -a^dag b^dag
                rows.append((na + 1) * d + (nb + 1))
                cols.append(col)
                vals.append(-sq[na + 1] * sq[nb + 1])
    generator = csr_matrix((vals, (rows, cols)), shape=(d * d, d * d), dtype=complex)
    v0 = np.zeros((d, d), dtype=complex)
    v0[:, 0] = _coherent_amplitudes(alpha, cutoff)
    return expm_multiply(r * generator, v0.ravel()).reshape(d, d)


def imported_after_oracle(package: str) -> str:
    """The list, as printed, of modules under `package` that a fresh `import qspr.oracle` loads."""
    code = f"import sys, qspr.oracle; print([m for m in sys.modules if m.startswith('{package}')])"
    src = str(Path(qspr.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestSectorExponential:
    # the reference exponentiates on a box 40 photons larger, so its own edge
    # sits far below 1e-12 inside the test's box
    @pytest.mark.parametrize("cutoff", [1, 2, 6, 40, 48])
    def test_matches_full_sparse_exponential(self, cutoff):
        d = cutoff + 1
        for alpha_sq in (0.0, 0.1, 4.0):
            for r in (0.1, 0.5):
                alpha = complex(np.sqrt(alpha_sq))
                ref = sparse_tmsd_amplitudes(alpha, r, cutoff + 40)[:d, :d]
                amps = _tmsd_amplitudes(alpha, r, cutoff)
                assert np.max(np.abs(amps - ref)) <= 1e-12, (alpha_sq, r)
        if cutoff == 6:  # the edge site |6, 0>, alone in sector D = cutoff, carries real weight
            assert abs(ref[6, 0]) > 0.1

    def test_import_leaves_scipy_sparse_out(self):
        assert imported_after_oracle("scipy.sparse") == "[]"

    def test_import_leaves_scipy_linalg_out(self):
        # the sector expansion needs no eigensolver
        assert imported_after_oracle("scipy.linalg") == "[]"


class TestBuildState:
    def test_twin_fock_is_single_basis_vector(self):
        state = build_state(ProbeState(ProbeKind.TMF, 2.0), cutoff=4)
        expected = np.zeros((5, 5))
        expected[2, 2] = 1.0
        assert np.array_equal(np.abs(state.amplitudes), expected)
        assert state.tail_mass == 0.0

    def test_tmsv_schmidt_weights(self):
        r = 0.5
        state = build_state(tmsv_with_r(r), cutoff=40)
        probs = np.abs(state.amplitudes) ** 2
        lam2 = np.tanh(r) ** 2
        n = np.arange(41)
        assert probs[0, 0] == pytest.approx(0.7864477329659274, rel=1e-12)
        assert np.diag(probs) == pytest.approx((1 - lam2) * lam2**n, rel=1e-10)
        off_diagonal = probs - np.diag(np.diag(probs))
        assert np.max(off_diagonal) == 0.0

    def test_tmsd_alpha_zero_matches_tmsv(self):
        r = 0.45
        sd = build_state(tmsd_with(0.0, r), cutoff=30)
        sv = build_state(tmsv_with_r(r), cutoff=30)
        # photon statistics must agree; the generator phase convention may not
        assert np.abs(sd.amplitudes) == pytest.approx(np.abs(sv.amplitudes), abs=1e-10)

    def test_tmc_is_product_of_poissonians(self):
        state = build_state(ProbeState(ProbeKind.TMC, 3.0), cutoff=40)
        probs = np.abs(state.amplitudes) ** 2
        marginal_a = probs.sum(axis=1)
        from scipy.stats import poisson

        assert marginal_a == pytest.approx(poisson.pmf(np.arange(41), 3.0), abs=1e-12)

    def test_undersized_cutoff_raises(self):
        with pytest.raises(TruncationError):
            build_state(ProbeState(ProbeKind.TMC, 4.0), cutoff=8)
        with pytest.raises(TruncationError):
            build_state(ProbeState(ProbeKind.TMF, 6.0), cutoff=4)

    def test_tmsd_unconverged_exponential_raises(self):
        # the squeezing leak past cutoff 12 is 2.55e-8 against a 1e-10 tolerance
        with pytest.raises(TruncationError, match="tail mass"):
            build_state(tmsd_with(0.1, 0.5), cutoff=12)

    def test_tmsd_tail_mass_is_the_squeezing_leak(self):
        probe = tmsd_with(0.1, 0.5)
        state = build_state(probe, cutoff=16)
        large = build_state(probe, cutoff=60).amplitudes
        leak = 1.0 - np.sum(np.abs(large[:17, :17]) ** 2)
        assert leak == pytest.approx(9.1e-11, rel=0.01)
        assert state.tail_mass == pytest.approx(leak, rel=0.01)

    def test_tmsd_mean_photon_partition(self):
        state_spec = tmsd_with(2.0, 0.4)
        built = build_state(state_spec, cutoff=50)
        probs = np.abs(built.amplitudes) ** 2
        n = np.arange(51, dtype=float)
        assert probs.sum(axis=1) @ n == pytest.approx(state_spec.n_mean, rel=1e-10)
        assert probs.sum(axis=0) @ n == pytest.approx(state_spec.n_reference, rel=1e-10)


class TestApplyChannels:
    def test_identity_channel_preserves_distribution(self):
        state = build_state(ProbeState(ProbeKind.TMC, 2.0), cutoff=30)
        P = apply_channels(state, T=1.0, eta_a=1.0, eta_b=1.0)
        assert P == pytest.approx(np.abs(state.amplitudes) ** 2, abs=1e-14)

    def test_single_photon_binomial(self):
        state = build_state(ProbeState(ProbeKind.TMF, 1.0), cutoff=3)
        P = apply_channels(state, T=0.5, eta_a=1.0, eta_b=1.0)
        assert P[0, 1] == pytest.approx(0.5, rel=1e-12)
        assert P[1, 1] == pytest.approx(0.5, rel=1e-12)

    def test_poisson_thinning(self):
        state = build_state(ProbeState(ProbeKind.TMC, 3.0), cutoff=45)
        marginal_a = apply_channels(state, T=0.4, eta_a=1.0, eta_b=1.0).sum(axis=1)
        assert marginal_a[0] == pytest.approx(np.exp(-1.2), rel=1e-10)

    def test_channel_bounds_checked(self):
        state = build_state(ProbeState(ProbeKind.TMF, 1.0), cutoff=3)
        with pytest.raises(ValueError):
            apply_channels(state, T=1.2, eta_a=1.0, eta_b=1.0)

    def test_thinning_conserves_probability(self):
        # binomial loss moves photons, never mass: sum + tail stays 1
        for probe in (ProbeState(ProbeKind.TMC, 2.5), tmsd_with(1.2, 0.35)):
            state = build_state(probe, cutoff=45)
            P = apply_channels(state, T=0.37, eta_a=0.81, eta_b=0.64)
            assert np.all(P >= 0.0)
            assert P.sum() + state.tail_mass == pytest.approx(1.0, abs=1e-12)


class TestThinningMatrix:
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_matches_grid_formula_bitwise(self, p):
        lost, log_binom = _thinning_logs(40)
        k = np.arange(41)
        grid = np.exp(log_binom + (xlogy(k, p) + xlog1py(lost, -p)))
        assert np.array_equal(_thinning_matrix(40, p), grid)

    def test_exact_endpoints(self):
        assert np.array_equal(_thinning_matrix(40, 1.0), np.eye(41))
        lose_all = np.zeros((41, 41))
        lose_all[:, 0] = 1.0
        assert np.array_equal(_thinning_matrix(40, 0.0), lose_all)


class TestOracleMoments:
    def test_tmf_against_closed_form(self):
        state = build_state(ProbeState(ProbeKind.TMF, 4.0), cutoff=10)
        mm, dm = oracle_moments(apply_channels(state, 0.3, 1.0, 1.0))
        assert type(mm) is float and type(dm) is float
        assert dm == pytest.approx(np.sqrt(4 * (0.3 * 0.7 + 0.0)), rel=1e-10)

    def test_tmsv_against_closed_form(self):
        probe = tmsv_with_r(0.4)
        state = build_state(probe, cutoff=60)
        mm, dm = oracle_moments(apply_channels(state, 0.6, 0.8, 0.8))
        assert dm == pytest.approx(delta_M(probe, 0.6, 0.8, 0.8), rel=1e-8)
        assert mm == pytest.approx(mean_M(probe, 0.6, 0.8, 0.8), abs=1e-8)

    def test_tmsd_against_closed_form(self):
        probe = tmsd_with(2.0, float(np.arccosh(np.sqrt(1.5))))
        state = build_state(probe, cutoff=60)
        mm, dm = oracle_moments(apply_channels(state, 0.5, 1.0, 1.0))
        assert dm == pytest.approx(delta_M(probe, 0.5, 1.0, 1.0), rel=1e-6)
        assert mm == pytest.approx(mean_M(probe, 0.5, 1.0, 1.0), rel=1e-6)

    def test_cutoff_convergence(self):
        probe = tmsd_with(1.5, 0.4)
        vals = []
        for cutoff in (40, 80):
            state = build_state(probe, cutoff=cutoff)
            vals.append(oracle_moments(apply_channels(state, 0.55, 0.9, 0.7))[1])
        assert abs(vals[1] - vals[0]) < 1e-8


class TestVerification:
    def test_all_states_match_closed_forms(self):
        reports = verify_closed_forms(tuples=50, cutoff=40, seed=2024)
        assert {r.kind for r in reports} == set(ProbeKind)
        for report in reports:
            assert report.max_dev <= 1e-6, f"{report.kind}: {report.max_dev:.3e}"

    def test_largest_cutoff_passes_without_warning(self):
        # sqrt(C(200, 100)) ~ 3e29 is the largest factor the TMSD product meets
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = verify_closed_forms(tuples=5, cutoff=MAX_CUTOFF, seed=2024)
        for report in reports:
            assert report.max_dev <= 1e-6, f"{report.kind}: {report.max_dev:.3e}"

    def test_insufficient_cutoff_detected(self):
        with pytest.raises(TruncationError):
            verify_closed_forms(tuples=10, cutoff=6, seed=2024)

    def test_tuple_count_validated(self):
        with pytest.raises(ValueError):
            verify_closed_forms(tuples=0, cutoff=40, seed=2024)

"""Truncated-Fock oracle: state construction, loss channels, moment checks."""
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, cosh, exp, factorial, sinh, sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from oracle_reference import distribution_moments, joint_moments, thinned_distribution, thinning_matrix

import qspr
import qspr.oracle
from qspr.oracle import (
    MAX_CUTOFF,
    TruncationError,
    _coherent_amplitudes,
    _channel_moments,
    _draw_slice,
    _tmsd_amplitudes,
    apply_channels,
    build_state,
    oracle_moments,
    verify_closed_forms,
)
from qspr.probes import ProbeKind, ProbeState, delta_M, mean_M, thinning_law


def tmsv_with_r(r: float) -> ProbeState:
    return ProbeState(kind=ProbeKind.TMSV, n_mean=float(np.sinh(r) ** 2))


def tmsd_with(alpha_sq: float, r: float) -> ProbeState:
    g = float(np.cosh(r) ** 2)
    return ProbeState(kind=ProbeKind.TMSD, n_mean=g * alpha_sq + (g - 1.0), g=g)


def sparse_tmsd_amplitudes(alpha: float, r: float, cutoff: int) -> np.ndarray:
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


def exact_coherent(alpha: Decimal, cutoff: int) -> list[Decimal]:
    """<n|alpha> for n <= cutoff, to 60 digits, in the current decimal context."""
    amps = [(-alpha * alpha / 2).exp()]
    for n in range(1, cutoff + 1):
        amps.append(amps[-1] * alpha / Decimal(n).sqrt())
    return amps


def exact_tmsd(state: ProbeState, cutoff: int) -> dict[tuple[int, int], Decimal]:
    """Sector sites (D + j, j) of the state's own float G and |alpha|^2, to 60 digits.

    Only the sites where coh[D] G^(-(D+1)/2) ((G-1)/G)^(j/2), the oracle's running
    product before sqrt(C(D+j, j)), is a normal float: below it the product underflows.
    """
    tiny = Decimal(np.finfo(float).tiny)
    with localcontext() as ctx:
        ctx.prec = 60
        G = Decimal(state.g)
        coh = exact_coherent(Decimal(state.alpha_sq).sqrt(), cutoff)
        sech, tanh = 1 / G.sqrt(), ((G - 1) / G).sqrt()
        sites = {}
        for D in range(cutoff + 1):
            for j in range(cutoff + 1 - D):
                partial = coh[D] * sech ** (D + 1) * tanh**j
                if partial >= tiny:
                    sites[D + j, j] = (-1) ** j * partial * Decimal(comb(D + j, j)).sqrt()
        return sites


def worst_ulps(computed: np.ndarray, exact) -> float:
    """Largest |computed - exact| in ulp = 2^-52 |exact| over (index, exact value) pairs."""
    eps = Decimal(np.finfo(float).eps)
    with localcontext() as ctx:
        ctx.prec = 60
        return max(float(abs(Decimal(computed[i]) - e) / (eps * abs(e))) for i, e in exact)


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


def small_tuples(kind: ProbeKind, count: int, seed: int) -> tuple[ProbeState, np.ndarray]:
    """A column of ``count`` states and their (T, eta_a, eta_b) rows, drawn as verify draws them."""
    return _draw_slice(kind, np.random.default_rng(seed), count)


def recorded_verify(monkeypatch, entries: int) -> tuple[list, list]:
    """verify_closed_forms(50, 40, 2024) at FOCK_ENTRIES_PER_SLICE = entries, with each tuple's (G, mean, sd)."""
    monkeypatch.setattr(qspr.oracle, "FOCK_ENTRIES_PER_SLICE", entries)
    seen = []

    def recording(G):
        moments = oracle_moments(G)
        seen.extend(zip(G, *moments))
        return moments

    monkeypatch.setattr(qspr.oracle, "oracle_moments", recording)
    return verify_closed_forms(tuples=50, cutoff=40, seed=2024), seen


def verify_peak_bytes(tuples: int) -> int:
    """tracemalloc peak of one verify_closed_forms pass at cutoff 40."""
    tracemalloc.start()
    try:
        verify_closed_forms(tuples=tuples, cutoff=40, seed=2024)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSectorExponential:
    # the reference exponentiates on a box 40 photons larger, so its own edge
    # sits far below 1e-12 inside the test's box
    @pytest.mark.parametrize("cutoff", [1, 2, 6, 40, 48])
    def test_matches_full_sparse_exponential(self, cutoff):
        d = cutoff + 1
        for alpha_sq in (0.0, 0.1, 4.0):
            for r in (0.1, 0.5):
                alpha = float(np.sqrt(alpha_sq))
                ref = sparse_tmsd_amplitudes(alpha, r, cutoff + 40)[:d, :d]
                amps = _tmsd_amplitudes([alpha], [np.cosh(r) ** 2], cutoff)[0]
                assert np.max(np.abs(amps - ref)) <= 1e-12, (alpha_sq, r)
        if cutoff == 6:  # the edge site |6, 0>, alone in sector D = cutoff, carries real weight
            assert abs(ref[6, 0]) > 0.1

    def test_import_leaves_scipy_sparse_out(self):
        assert imported_after_oracle("scipy.sparse") == "[]"

    def test_import_leaves_scipy_linalg_out(self):
        # the sector expansion needs no eigensolver
        assert imported_after_oracle("scipy.linalg") == "[]"


class TestCoherentAmplitudes:
    def test_alpha_zero_is_the_exact_vacuum(self):
        vacuum = np.zeros(41)
        vacuum[0] = 1.0
        amps = _coherent_amplitudes([0.0, 1.0], 40)
        assert np.array_equal(amps[0], vacuum)
        assert np.array_equal(_coherent_amplitudes(0.0, 40), vacuum)
        # alpha = 1 beside it: <n|1> = e^(-1/2) / sqrt(n!)
        assert amps[1] == pytest.approx([exp(-0.5) / sqrt(factorial(n)) for n in range(41)], rel=1e-13)

    def test_state_far_beyond_its_box_raises_not_nan(self):
        # |alpha|^2 = 1e4 at cutoff 40: every amplitude underflows to 0, none is NaN
        assert np.array_equal(_coherent_amplitudes(100.0, 40), np.zeros(41))
        with pytest.raises(TruncationError, match="tail mass 1.00e\\+00"):
            build_state(ProbeState(ProbeKind.TMC, 1e4), cutoff=40)


class TestExactAmplitudes:
    """Amplitudes against 60-digit decimal values at the same float inputs.

    An ulp here is 2^-52 |exact|, so one correctly rounded operation costs at
    most half of one; exp and pow are taken to be within one. Each bound is one
    ulp per factor and per product of the amplitude's running product.
    """

    @pytest.mark.parametrize("cutoff", [40, 200])
    def test_coherent_columns(self, cutoff):
        # <n|alpha> is exp(-alpha^2/2), within 2 ulp (the rounded alpha^2, at
        # most 4, moves it by at most 1), times n steps alpha/sqrt(m), a square
        # root and a quotient each, in n products: 2 + 1.5 n <= 2 (cutoff + 1)
        for alpha_sq in (0.1, 1.0, 4.0):
            alpha = sqrt(alpha_sq)
            with localcontext() as ctx:
                ctx.prec = 60
                exact = exact_coherent(Decimal(alpha), cutoff)
            amps = _coherent_amplitudes(alpha, cutoff)
            assert worst_ulps(amps, enumerate(exact)) <= 2 * (cutoff + 1), alpha_sq

    @pytest.mark.parametrize("cutoff", [40, 200])
    def test_tmsd_states(self, cutoff):
        # site (D + j, j) with D + j <= cutoff: coh[D] of the rounded
        # alpha = sqrt(|alpha|^2), 2.5 + 2 D (its rounding raised to the D);
        # G^(-(D+1)/2), 1; the quotient (G - 1)/G, exact G - 1 over G, raised to
        # j/2, 1 + j/4; sqrt(C(D+j, j)), 0.75; three products, 1.5. In all
        # 6.75 + 2 D + j/4 <= 3 (cutoff + 1)
        for r in (0.1, 0.5):
            for alpha_sq in (0.1, 4.0):
                state = tmsd_with(alpha_sq, r)
                amps = build_state(state, cutoff)
                exact = exact_tmsd(state, cutoff)
                assert worst_ulps(amps, exact.items()) <= 3 * (cutoff + 1), (r, alpha_sq)
                assert np.all(amps[np.triu_indices(cutoff + 1, 1)] == 0.0)

    @pytest.mark.parametrize("cutoff", [40, 200])
    def test_tmsv_states(self, cutoff):
        # weight n: (N + 1)^(-1/2) of the rounded N + 1, 1.25; the quotient
        # N/(N + 1), two roundings, raised to n/2, 1 + n/2; one product, 0.5.
        # In all 2.75 + n/2 <= 3 (cutoff + 1)
        for r in (0.1, 0.5):
            state = tmsv_with_r(r)
            amps = build_state(state, cutoff)
            with localcontext() as ctx:
                ctx.prec = 60
                N = Decimal(state.n_mean)
                lam = (N / (N + 1)).sqrt()
                exact = [((n, n), (-1) ** n * lam**n / (N + 1).sqrt()) for n in range(cutoff + 1)]
            assert worst_ulps(amps, exact) <= 3 * (cutoff + 1), r
            assert np.array_equal(amps, np.diag(np.diag(amps)))


class TestBuildState:
    def test_twin_fock_is_single_basis_vector(self):
        amps = build_state(ProbeState(ProbeKind.TMF, 2.0), cutoff=4)
        expected = np.zeros((5, 5))
        expected[2, 2] = 1.0
        assert np.array_equal(np.abs(amps), expected)
        assert 1.0 - np.sum(np.abs(amps) ** 2) == 0.0

    def test_tmsv_schmidt_weights(self):
        r = 0.5
        probs = np.abs(build_state(tmsv_with_r(r), cutoff=40)) ** 2
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
        assert np.abs(sd) == pytest.approx(np.abs(sv), abs=1e-10)

    def test_tmc_is_product_of_poissonians(self):
        probs = np.abs(build_state(ProbeState(ProbeKind.TMC, 3.0), cutoff=40)) ** 2
        marginal_a = probs.sum(axis=1)
        from scipy.stats import poisson

        assert marginal_a == pytest.approx(poisson.pmf(np.arange(41), 3.0), abs=1e-12)

    def test_undersized_cutoff_raises(self):
        with pytest.raises(TruncationError):
            build_state(ProbeState(ProbeKind.TMC, 4.0), cutoff=8)
        with pytest.raises(TruncationError):
            build_state(ProbeState(ProbeKind.TMF, 6.0), cutoff=4)
        # the float N meets the cutoff before its int cast, which 1e19 and inf
        # overflow (with numpy's invalid-cast warning, which the pytest config makes an error)
        for n_mean, named in ((41.0, "41"), (1e19, "1e+19"), (np.inf, "inf")):
            with pytest.raises(TruncationError, match=rf"below Fock number {re.escape(named)}$"):
                build_state(ProbeState(ProbeKind.TMF, n_mean), cutoff=40)

    def test_tmsd_unconverged_exponential_raises(self):
        # the squeezing leak past cutoff 12 is 2.55e-8 against a 1e-10 tolerance
        with pytest.raises(TruncationError, match="tail mass"):
            build_state(tmsd_with(0.1, 0.5), cutoff=12)

    def test_tmsd_tail_mass_is_the_squeezing_leak(self):
        probe = tmsd_with(0.1, 0.5)
        amps = build_state(probe, cutoff=16)
        large = build_state(probe, cutoff=60)
        leak = 1.0 - np.sum(np.abs(large[:17, :17]) ** 2)
        assert leak == pytest.approx(9.1e-11, rel=0.01)
        assert 1.0 - np.sum(np.abs(amps) ** 2) == pytest.approx(leak, rel=0.01)

    def test_tmsd_mean_photon_partition(self):
        state_spec = tmsd_with(2.0, 0.4)
        probs = np.abs(build_state(state_spec, cutoff=50)) ** 2
        n = np.arange(51, dtype=float)
        assert probs.sum(axis=1) @ n == pytest.approx(state_spec.n_mean, rel=1e-10)
        assert probs.sum(axis=0) @ n == pytest.approx(state_spec.n_reference, rel=1e-10)


class TestApplyChannels:
    """Each distribution check on the reference's P' from the production thinning, and its moment twin."""

    def test_identity_channel_preserves_distribution(self):
        amps = build_state(ProbeState(ProbeKind.TMC, 2.0), cutoff=30)
        P = thinned_distribution(amps, T=1.0, eta_a=1.0, eta_b=1.0)
        assert P == pytest.approx(np.abs(amps) ** 2, abs=1e-14)

    def test_identity_channel_gives_the_direct_sums(self):
        amps = build_state(ProbeState(ProbeKind.TMC, 2.0), cutoff=30)
        G = apply_channels(np.square(amps), T=1.0, eta_a=1.0, eta_b=1.0)
        n = np.arange(31, dtype=float)
        direct = [[np.sum(amps**2 * np.outer(n**i, n**j)) for j in range(3)] for i in range(3)]
        assert G.shape == (3, 3)
        assert G == pytest.approx(np.array(direct), rel=1e-14)

    def test_single_photon_binomial(self):
        amps = build_state(ProbeState(ProbeKind.TMF, 1.0), cutoff=3)
        P = thinned_distribution(amps, T=0.5, eta_a=1.0, eta_b=1.0)
        assert P[0, 1] == pytest.approx(0.5, rel=1e-12)
        assert P[1, 1] == pytest.approx(0.5, rel=1e-12)

    def test_single_photon_binomial_moments(self):
        amps = build_state(ProbeState(ProbeKind.TMF, 1.0), cutoff=3)
        G = apply_channels(np.square(amps), T=0.5, eta_a=1.0, eta_b=1.0)
        # n_a is 0 or 1: both its mean and its second moment are the kept half
        assert G[1, 0] == pytest.approx(0.5, rel=1e-12)
        assert G[2, 0] == pytest.approx(0.5, rel=1e-12)

    def test_poisson_thinning(self):
        amps = build_state(ProbeState(ProbeKind.TMC, 3.0), cutoff=45)
        marginal_a = thinned_distribution(amps, T=0.4, eta_a=1.0, eta_b=1.0).sum(axis=1)
        assert marginal_a[0] == pytest.approx(np.exp(-1.2), rel=1e-10)

    def test_poisson_thinning_moments(self):
        amps = build_state(ProbeState(ProbeKind.TMC, 3.0), cutoff=45)
        G = apply_channels(np.square(amps), T=0.4, eta_a=1.0, eta_b=1.0)
        # thinned Poisson(3) is Poisson(1.2): mean = variance
        assert G[1, 0] == pytest.approx(1.2, rel=1e-10)
        assert G[2, 0] - G[1, 0] ** 2 == pytest.approx(1.2, rel=1e-10)

    def test_channel_bounds_checked(self):
        amps = build_state(ProbeState(ProbeKind.TMF, 1.0), cutoff=3)
        with pytest.raises(ValueError):
            apply_channels(np.square(amps), T=1.2, eta_a=1.0, eta_b=1.0)

    @pytest.mark.parametrize(
        ("name", "bad"), [("T", np.nan), ("eta_a", np.nan), ("eta_b", -0.1), ("T", [0.5, np.nan, 0.5])]
    )
    def test_nan_or_out_of_range_channel_is_named(self, name, bad):
        P = np.square(build_state(ProbeState(ProbeKind.TMF, np.array([1.0, 2.0, 1.0])), cutoff=3))
        channels = {"T": 0.5, "eta_a": 0.9, "eta_b": 0.8, name: bad}
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\]$"):
            apply_channels(P, **channels)

    def test_empty_stack_gives_empty_moments(self):
        assert apply_channels(np.zeros((0, 4, 4)), np.empty(0), 0.5, 0.5).shape == (0, 3, 3)
        assert apply_channels(np.eye(4) / 4, 0.5, np.empty((2, 0)), 1.0).shape == (2, 0, 3, 3)

    def test_stack_with_scalar_channels_is_each_state(self):
        states, channels = small_tuples(ProbeKind.TMSD, 7, seed=3)
        P = np.square(build_state(states, cutoff=40))
        G = apply_channels(P, 0.37, channels[:, 1], 0.64)
        assert G.shape == (7, 3, 3)
        for i in range(7):
            assert np.array_equal(G[i], apply_channels(P[i], 0.37, channels[i, 1], 0.64))

    def test_thinning_conserves_probability(self):
        # binomial loss moves photons, never mass: sum + tail stays 1
        for probe in (ProbeState(ProbeKind.TMC, 2.5), tmsd_with(1.2, 0.35)):
            amps = build_state(probe, cutoff=45)
            P = thinned_distribution(amps, T=0.37, eta_a=0.81, eta_b=0.64)
            assert np.all(P >= 0.0)
            tail_mass = 1.0 - np.sum(np.abs(amps) ** 2)
            assert P.sum() + tail_mass == pytest.approx(1.0, abs=1e-12)

    def test_thinning_conserves_probability_moments(self):
        # G[0, 0] is the thinned mass, summed through each channel's own binomial sites
        for probe in (ProbeState(ProbeKind.TMC, 2.5), tmsd_with(1.2, 0.35)):
            amps = build_state(probe, cutoff=45)
            G = apply_channels(np.square(amps), T=0.37, eta_a=0.81, eta_b=0.64)
            tail_mass = 1.0 - np.sum(np.abs(amps) ** 2)
            assert G[0, 0] + tail_mass == pytest.approx(1.0, abs=1e-12)


class TestFullDistributionReference:
    """The contracted moments against sums over the whole thinned distribution, state by state."""

    @pytest.mark.parametrize("kind", list(ProbeKind))
    @pytest.mark.parametrize(("count", "cutoff"), [(50, 40), (5, MAX_CUTOFF)])
    def test_contraction_matches_the_distribution(self, kind, count, cutoff):
        states, channels = small_tuples(kind, count, seed=2024)
        amps = build_state(states, cutoff)
        P = thinned_distribution(amps, *channels.T)
        G = apply_channels(np.square(amps), *channels.T)
        assert G == pytest.approx(joint_moments(P), rel=1e-13, abs=0.0)
        means, sds = oracle_moments(G)
        ref_means, ref_sds = distribution_moments(P)
        assert sds == pytest.approx(ref_sds, rel=1e-13, abs=0.0)
        # the mean crosses zero: scale it by the noise, as verify does
        assert np.all(np.abs(means - ref_means) <= 1e-13 * np.maximum(np.abs(ref_means), ref_sds))


def exact_channel_moments(p: float, cutoff: int) -> list[list[float]]:
    """sum_k C(n, k) p^k (1-p)^(n-k) k^j, j <= 2, for each n <= cutoff: exact Fraction sums, each rounded once."""
    # the float p taken exactly, a / den, so 1 - p is exact too; row n's sum is
    # an integer over den^n
    a, den = Fraction(p).as_integer_ratio()
    kept, lost = [a**k for k in range(cutoff + 1)], [(den - a) ** k for k in range(cutoff + 1)]
    rows = []
    for n in range(cutoff + 1):
        sites = [comb(n, k) * kept[k] * lost[n - k] for k in range(n + 1)]
        rows.append([float(Fraction(sum(site * k**j for k, site in enumerate(sites)), den**n)) for j in range(3)])
    return rows


TRANSMISSIVITIES = [0.0025, 0.05, 0.37, 0.45, 0.5, 0.9025]


class TestThinningMatrix:
    """The reference's full matrix, built from the production power tables and binomials."""

    @pytest.mark.parametrize("p", TRANSMISSIVITIES)
    def test_matches_exact_rational(self, p):
        # the float p taken exactly, so 1 - p is exact too; at p = 0.45, (1 - p)^40
        # is 18 ulp off unless the thinning adds back the rounded-off rest of 1 - p
        P = Fraction(p)
        matrix = thinning_matrix(40, p)
        for n in range(41):
            for k in range(n + 1):
                exact = float(comb(n, k) * P**k * (1 - P) ** (n - k))
                assert abs(matrix[n, k] - exact) <= 16 * np.finfo(float).eps * exact, (n, k)
        assert np.all(matrix[np.triu_indices(41, 1)] == 0.0)

    def test_stack_of_transmissivities_is_each_matrix(self):
        p = np.array([[0.0, 0.37], [0.81, 1.0]])
        stack = thinning_matrix(40, p)
        assert stack.shape == (2, 2, 41, 41)
        for i, j in np.ndindex(p.shape):
            assert np.array_equal(stack[i, j], thinning_matrix(40, p[i, j]))

    def test_exact_endpoints(self):
        assert np.array_equal(thinning_matrix(40, 1.0), np.eye(41))
        lose_all = np.zeros((41, 41))
        lose_all[:, 0] = 1.0
        assert np.array_equal(thinning_matrix(40, 0.0), lose_all)


class TestChannelMoments:
    """The production contraction S V, V = [1, k, k^2], without the matrix S."""

    @pytest.mark.parametrize("cutoff", [40, MAX_CUTOFF])
    @pytest.mark.parametrize("p", TRANSMISSIVITIES)
    def test_matches_exact_rational_sums(self, p, cutoff):
        (contracted,) = _channel_moments(cutoff, [p])
        exact = np.array(exact_channel_moments(p, cutoff))
        assert contracted.shape == (cutoff + 1, 3)
        # row 0 is [1, 0, 0]: those zeros must be exact too
        assert np.all(np.abs(contracted - exact) <= 16 * np.finfo(float).eps * exact)

    def test_exact_endpoints(self):
        V = np.arange(41, dtype=float)[:, None] ** np.arange(3)
        assert np.array_equal(next(_channel_moments(40, [1.0])), V)
        lose_all = np.zeros((41, 3))
        lose_all[:, 0] = 1.0
        assert np.array_equal(next(_channel_moments(40, [0.0])), lose_all)

    def test_stack_of_transmissivities_is_each_contraction(self):
        p = np.array([[0.0, 0.37], [0.81, 1.0]])
        # the first axis is the channel axis: two channels of two states each
        stack = np.stack(list(_channel_moments(40, p, out=np.full((2, 41, 41), np.nan))))
        assert stack.shape == (2, 2, 41, 3)
        for i, j in np.ndindex(p.shape):
            assert np.array_equal(stack[i, j], next(_channel_moments(40, [p[i, j]])))


class TestOracleMoments:
    def test_tmf_against_closed_form(self):
        amps = build_state(ProbeState(ProbeKind.TMF, 4.0), cutoff=10)
        mm, dm = oracle_moments(apply_channels(np.square(amps), 0.3, 1.0, 1.0))
        assert type(mm) is float and type(dm) is float
        assert dm == pytest.approx(np.sqrt(4 * (0.3 * 0.7 + 0.0)), rel=1e-10)

    def test_tmsv_against_closed_form(self):
        probe = tmsv_with_r(0.4)
        amps = build_state(probe, cutoff=60)
        mm, dm = oracle_moments(apply_channels(np.square(amps), 0.6, 0.8, 0.8))
        assert dm == pytest.approx(delta_M(probe, 0.6, 0.8, 0.8), rel=1e-8)
        assert mm == pytest.approx(mean_M(probe, 0.6, 0.8, 0.8), abs=1e-8)

    def test_tmsd_against_closed_form(self):
        probe = tmsd_with(2.0, float(np.arccosh(np.sqrt(1.5))))
        amps = build_state(probe, cutoff=60)
        mm, dm = oracle_moments(apply_channels(np.square(amps), 0.5, 1.0, 1.0))
        assert dm == pytest.approx(delta_M(probe, 0.5, 1.0, 1.0), rel=1e-6)
        assert mm == pytest.approx(mean_M(probe, 0.5, 1.0, 1.0), rel=1e-6)

    def test_unbalanced_tmc_column_against_the_thinning_law(self):
        # the classical twin of a TMSD plan carries N_ref != N, a row that verify never draws
        u = np.random.default_rng(3).random((200, 5))
        states = ProbeState(ProbeKind.TMC, 0.5 + 3.5 * u[:, 3], n_ref=0.5 + 3.5 * u[:, 4])
        T, eta_a, eta_b = (0.05 + 0.9 * u[:, :3]).T
        G = apply_channels(np.square(build_state(states, 40)), T, eta_a, eta_b)
        mm_oracle, dm_oracle = oracle_moments(G)
        mm_closed, dm_closed = thinning_law(states.input_moments, T, eta_a, eta_b)
        # verify's deviations: relative, the mean scaled by the noise where it crosses zero
        assert np.max(np.abs(dm_oracle - dm_closed) / dm_closed) <= 1e-13
        assert np.max(np.abs(mm_oracle - mm_closed) / np.maximum(np.abs(mm_closed), dm_closed)) <= 1e-13

    def test_cutoff_convergence(self):
        probe = tmsd_with(1.5, 0.4)
        vals = []
        for cutoff in (40, 80):
            amps = build_state(probe, cutoff=cutoff)
            vals.append(oracle_moments(apply_channels(np.square(amps), 0.55, 0.9, 0.7))[1])
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

    def test_warm_passes_fault_no_pages_without_scipy(self):
        # the helper counts ru_minflt in fresh interpreters that never import scipy,
        # so glibc's mmap and trim thresholds start at their 128 KB defaults
        helper = Path(__file__).with_name("verify_faults.py")
        src = str(Path(qspr.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, str(helper)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.count("minor faults per pass") == 4

    def test_memory_does_not_grow_with_tuples(self):
        verify_closed_forms(tuples=1, cutoff=40, seed=2024)  # fill the per-cutoff caches
        few, many = verify_peak_bytes(50), verify_peak_bytes(2000)
        # a whole 2,000-tuple family of (41, 41) amplitudes alone is 54 MB
        assert abs(many - few) <= 2**20, (few, many)


class TestSlices:
    @pytest.mark.parametrize("kind", list(ProbeKind))
    def test_tuple_alone_equals_tuple_in_a_stack(self, kind):
        states, channels = small_tuples(kind, 7, seed=11)
        amps = build_state(states, cutoff=40)
        G = apply_channels(np.square(amps), *channels.T)
        means, sds = oracle_moments(G)
        assert amps.shape == (7, 41, 41) and G.shape == (7, 3, 3) and means.shape == sds.shape == (7,)
        # the same stack in a workspace, as verify evaluates it: P overwrites the amplitudes
        workspace = np.full((2, 7, 41, 41), np.nan)
        P = np.square(build_state(states, 40, out=workspace[0]), out=workspace[0])
        in_place = apply_channels(P, *channels.T, out=workspace[1])
        assert np.array_equal(in_place, G)
        assert np.array_equal(workspace[0], amps**2)
        g = np.broadcast_to(states.g, (7,))
        for i in range(7):
            alone = build_state(ProbeState(kind, float(states.n_mean[i]), g=float(g[i])), cutoff=40)
            assert np.array_equal(alone, amps[i])
            G_alone = apply_channels(np.square(alone), *channels[i])
            assert np.array_equal(G_alone, G[i])
            assert oracle_moments(G_alone) == (means[i], sds[i])

    def test_drawn_tuples_stay_in_their_ranges(self):
        for kind in ProbeKind:
            states, channels = small_tuples(kind, 400, seed=5)
            assert channels.shape == (400, 3)
            assert np.all((channels >= 0.05) & (channels <= 0.95))
            n = states.n_mean
            if kind is ProbeKind.TMC:
                assert np.all((n >= 0.5) & (n < 4.0))
            elif kind is ProbeKind.TMF:
                assert sorted(set(n)) == [1.0, 2.0, 3.0, 4.0]
            elif kind is ProbeKind.TMSV:
                assert np.all((n >= sinh(0.1) ** 2) & (n <= sinh(0.5) ** 2))
            else:
                assert np.all((states.g >= cosh(0.1) ** 2) & (states.g <= cosh(0.5) ** 2))
                alpha_sq = states.alpha_sq
                assert np.all((alpha_sq > 0.1 - 1e-12) & (alpha_sq < 4.0 + 1e-12))

    def test_verify_is_independent_of_the_slice_size(self, monkeypatch):
        reports, seen = recorded_verify(monkeypatch, qspr.oracle.FOCK_ENTRIES_PER_SLICE)
        assert len(seen) == 4 * 50
        # one tuple per slice, 9 tuples a slice (19 + 19 + 12 at the default:
        # the last slice is a partial view of the workspace), and each family in one slice
        for entries in (1, 2**14, 2**30):
            other_reports, other_seen = recorded_verify(monkeypatch, entries)
            assert other_reports == reports
            assert len(other_seen) == len(seen)
            for (G, mean, sd), (G0, mean0, sd0) in zip(other_seen, seen):
                assert np.array_equal(G, G0) and (mean, sd) == (mean0, sd0)

    def test_one_under_truncated_tuple_fails_its_slice(self, monkeypatch):
        draw = qspr.oracle._draw_slice
        drawn = []

        def one_bright(kind, rng, count):
            states, channels = draw(kind, rng, count)
            drawn.extend(states.n_mean)
            # the fourth TMC state needs a cutoff above 40: Poisson(30) leaves ~3% beyond it
            n_mean = states.n_mean.copy()
            n_mean[3] = 30.0
            return ProbeState(states.kind, n_mean), channels

        monkeypatch.setattr(qspr.oracle, "_draw_slice", one_bright)
        assert qspr.oracle.FOCK_ENTRIES_PER_SLICE // 41**2 >= 9
        with pytest.raises(TruncationError, match="tail mass"):
            verify_closed_forms(tuples=9, cutoff=40, seed=2024)
        assert len(drawn) == 9  # the whole slice was drawn before it was evaluated

    def test_stack_error_names_its_first_failing_state(self):
        with pytest.raises(TruncationError) as one:
            build_state(ProbeState(ProbeKind.TMC, np.array([30.0])), cutoff=40)
        with pytest.raises(TruncationError) as stacked:
            build_state(ProbeState(ProbeKind.TMC, np.array([2.0, 30.0, 35.0, 2.0])), cutoff=40)
        assert str(stacked.value) == str(one.value)

"""Monte Carlo ensemble engine: determinism, noise law, aggregation policy."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

import qspr.simulate as simulate
from qspr.cases import KAUSAITE2007
from qspr.fit import fit_sensorgrams
from qspr.kinetics import linearize_sensorgram, reconstruct_transmittance_sensorgram
from qspr.probes import ProbeKind, ProbeState, ScenarioMode, SensingScenario, delta_M, mean_M
from qspr.simulate import (
    LowSignalError,
    SimulationPlan,
    enhancement_Rk,
    m_enhancement,
    run_ensembles,
    sensorgram_substream,
    standard_normals,
    synthesize_noisy_sensorgrams,
)

NO_LOSS = SensingScenario(mode=ScenarioMode.STANDARD, eta_a=1.0)


@pytest.fixture(scope="module")
def kausaite_ideal():
    case = KAUSAITE2007
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    return trace.t, T_L


def make_plan(kind=ProbeKind.TMC, nu=1000, m=3, p=5, seed=99, n_mean=10.0, scenario=NO_LOSS):
    return SimulationPlan(
        nu=nu,
        m=m,
        p=p,
        seed=seed,
        state=ProbeState(kind=kind, n_mean=n_mean),
        scenario=scenario,
        tau_s=KAUSAITE2007.kinetics.tau_s,
        L0=KAUSAITE2007.kinetics.L0,
    )


def zero_normals(rng, n):
    """Stand-in for ``standard_normals`` that draws no noise at all."""
    return np.zeros(n)


def same(a, b) -> bool:
    """Whether two ensemble results hold the same plan and the same bits."""
    return (
        a.plan == b.plan
        and np.array_equal(a.kbars, b.kbars)
        and np.array_equal(a.usable, b.usable)
    )


class TestSubstreams:
    def test_repeatable_and_disjoint(self):
        a1 = standard_normals(sensorgram_substream(7, 2, 3), 100)
        a2 = standard_normals(sensorgram_substream(7, 2, 3), 100)
        b = standard_normals(sensorgram_substream(7, 3, 2), 100)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_normals_are_standard(self):
        z = standard_normals(sensorgram_substream(1, 0, 0), 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestSynthesize:
    def test_zero_noise_returns_mean(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal
        plan = make_plan()
        monkeypatch.setattr(simulate, "standard_normals", zero_normals)
        got = synthesize_noisy_sensorgrams(T_L, plan, sets=[0, 1])
        assert got.shape == (2 * plan.m, t.size)
        for row in got:
            assert row == pytest.approx(mean_M(plan.state, T_L, 1.0, 1.0), rel=1e-14)

    def test_fixed_seed_bit_identical(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan()
        one = synthesize_noisy_sensorgrams(T_L, plan, sets=[0])
        two = synthesize_noisy_sensorgrams(T_L, plan, sets=[0])
        assert np.array_equal(one, two)

    def test_rows_follow_set_and_sensorgram_substreams(self, kausaite_ideal):
        # row i*m + j is sensorgram j of the i-th requested set, whatever the
        # other requested sets: the (seed, set, sensorgram) substreams fix the noise
        t, T_L = kausaite_ideal
        plan = make_plan()
        block = synthesize_noisy_sensorgrams(T_L, plan, sets=[4, 1])
        mean = mean_M(plan.state, T_L, 1.0, 1.0)
        sigma = delta_M(plan.state, T_L, 1.0, 1.0) / np.sqrt(plan.nu)
        for i, set_index in enumerate([4, 1]):
            for j in range(plan.m):
                z = standard_normals(sensorgram_substream(plan.seed, set_index, j), t.size)
                assert np.array_equal(block[i * plan.m + j], mean + sigma * z)
        assert np.array_equal(synthesize_noisy_sensorgrams(T_L, plan, sets=[1]), block[plan.m :])

    def test_sample_mean_matches_specified_law(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan(nu=100, m=10_000, p=1)
        idx = 42
        draws = synthesize_noisy_sensorgrams(T_L, plan, sets=[0])[:, idx]
        mu = mean_M(plan.state, T_L[idx], 1.0, 1.0)
        sigma = delta_M(plan.state, T_L[idx], 1.0, 1.0) / np.sqrt(plan.nu)
        assert abs(draws.mean() - mu) < 4.0 * sigma / np.sqrt(draws.size)
        assert draws.std() == pytest.approx(sigma, rel=0.05)

    def test_rejects_unphysical_transmittance(self, kausaite_ideal):
        t, _ = kausaite_ideal
        plan = make_plan()
        with pytest.raises(ValueError):
            synthesize_noisy_sensorgrams(np.full_like(t, 1.5), plan, sets=[0])


class TestRunEnsemble:
    def test_zero_noise_collapses_to_ideal_fit(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal
        plan = make_plan(p=4, m=2)
        monkeypatch.setattr(simulate, "standard_normals", zero_normals)
        res = run_ensembles([plan], t, T_L)[0]  # serial: the patch reaches every draw
        ideal = fit_sensorgrams(
            t, mean_M(plan.state, T_L, 1.0, 1.0)[None], plan.tau_s, plan.L0
        )
        _, k_s, k_d = res.estimate
        assert np.array_equal(res.precision[1:], [0.0, 0.0])  # k_s, k_d
        assert k_d == pytest.approx(ideal.k_d[0], rel=1e-12)
        assert k_s == pytest.approx(ideal.k_s[0], rel=1e-12)
        assert res.failed_fit_count == 0

    def test_unbiased_at_reference_snr(self, kausaite_ideal):
        # classical probe at the reference operating point: the estimate stays
        # within three precisions of the noise-free pipeline value
        t, T_L = kausaite_ideal
        res = run_ensembles([make_plan(nu=1000, m=10, p=300, seed=42)], t, T_L)[0]
        assert res.failed_fit_count == 0
        assert abs(res.estimate[2] - 7.771e-3) < 3.0 * res.precision[2]  # k_d

    def test_parallel_execution_identical(self, kausaite_ideal):
        # three chunks of sets, so every worker count splits the work differently
        t, T_L = kausaite_ideal
        plan = make_plan(nu=200, m=2, p=2 * simulate.SETS_PER_CHUNK + 6, seed=5)
        serial = run_ensembles([plan], t, T_L, workers=1)[0]
        for workers in (2, 3):
            parallel = run_ensembles([plan], t, T_L, workers=workers)[0]
            assert same(serial, parallel)  # bit-identical aggregation

    def test_rerun_bit_identical(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan(nu=500, m=2, p=4)
        assert same(run_ensembles([plan], t, T_L)[0], run_ensembles([plan], t, T_L)[0])

    def test_all_failed_set_aborts(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal

        def hopeless(t, Y, *args, **kwargs):
            ideal = np.tile(mean_M(make_plan().state, T_L, 1.0, 1.0), (len(Y), 1))
            return dataclasses.replace(
                fit_sensorgrams(t, ideal, 1100.0, 274e-9),
                converged=np.zeros(len(Y), dtype=bool),
            )

        monkeypatch.setattr(simulate, "fit_sensorgrams", hopeless)
        with pytest.raises(LowSignalError, match="all 3 fits failed"):
            run_ensembles([make_plan(m=3, p=2)], t, T_L)

    def test_failure_fraction_flags_unreliable(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal
        real_fit = fit_sensorgrams
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            result = real_fit(*args, **kwargs)
            converged = result.converged.copy()
            for i in range(converged.size):
                calls["n"] += 1
                if calls["n"] % 4 == 0:  # deterministic 25% failure rate
                    converged[i] = False
            return dataclasses.replace(result, converged=converged)

        monkeypatch.setattr(simulate, "fit_sensorgrams", flaky)
        res = run_ensembles([make_plan(m=4, p=5)], t, T_L)[0]
        assert res.failed_fit_count == 5
        assert res.total_fits == 20
        assert res.failed_fit_count / res.total_fits == 0.25
        assert res.unreliable

    def test_kbars_average_each_set_over_its_usable_fits(self, kausaite_ideal, monkeypatch):
        # an independent recomputation of the set averages: each set is drawn and
        # fitted on its own, and a fit fails by a rule that reads only its own rates
        t, T_L = kausaite_ideal
        plan = make_plan(nu=300, m=4, p=6)

        def usable(fits):
            return fits.converged & (fits.k_d <= 7.771e-3)  # the noise-free k_d

        def failing(*args, **kwargs):
            fits = fit_sensorgrams(*args, **kwargs)
            return dataclasses.replace(fits, converged=usable(fits))

        monkeypatch.setattr(simulate, "fit_sensorgrams", failing)
        res = run_ensembles([plan], t, T_L)[0]
        for i in range(plan.p):
            Y = synthesize_noisy_sensorgrams(T_L, plan, [i])
            fits = fit_sensorgrams(t, Y, plan.tau_s, plan.L0)
            ok = usable(fits)
            assert res.usable[i] == ok.sum()
            rates = np.column_stack([fits.k_a, fits.k_s, fits.k_d])[ok]
            assert np.array_equal(res.kbars[i], rates.mean(axis=0)), i
        assert res.kbars.shape == (plan.p, 3)
        assert 0 < res.failed_fit_count == plan.m * plan.p - res.usable.sum()

    def test_needs_two_sets(self, kausaite_ideal):
        # the precision is a standard deviation over sets: one set would report
        # 0.0 for every rate, and R_k would divide by it
        t, T_L = kausaite_ideal
        plans = [make_plan(m=2, p=1), make_plan(kind=ProbeKind.TMF, m=2, p=1)]
        with pytest.raises(ValueError, match="p must be >= 2"):
            run_ensembles(plans, t, T_L)

    def test_precision_stable_in_p(self, kausaite_ideal):
        # the kbar distribution summary has settled by p=1500: doubling the
        # number of sets moves the reported precision by less than 5%
        t, T_L = kausaite_ideal
        small = run_ensembles([make_plan(nu=100, m=4, p=1500, seed=42)], t, T_L, workers=2)[0]
        large = run_ensembles([make_plan(nu=100, m=4, p=3000, seed=42)], t, T_L, workers=2)[0]
        for name, a, b in zip(simulate.PARAMETER_NAMES, small.precision, large.precision):
            assert abs(b / a - 1.0) < 0.05, name

    def test_space_equivalence(self, kausaite_ideal):
        # fitting the measurement-space trace and its affine image in
        # transmittance space yields the same rates for the same random stream
        t, T_L = kausaite_ideal
        plan = make_plan(nu=1000)
        y_m = synthesize_noisy_sensorgrams(T_L, plan, sets=[0])[0]
        slope = plan.scenario.eta_a * plan.state.n_mean
        intercept = -plan.scenario.eta_b * plan.state.n_reference
        y_t = (y_m - intercept) / slope  # Tbar with noise delta_T/sqrt(nu)
        fit_m = fit_sensorgrams(t, y_m[None], plan.tau_s, plan.L0)
        fit_t = fit_sensorgrams(t, y_t[None], plan.tau_s, plan.L0)
        assert fit_m.k_s[0] == pytest.approx(fit_t.k_s[0], rel=1e-8)
        assert fit_m.k_d[0] == pytest.approx(fit_t.k_d[0], rel=1e-8)


class TestRunEnsembles:
    def test_equals_per_plan_runs(self, kausaite_ideal):
        # mixed states, nu and m over two chunks of sets: each plan's result is
        # exactly its result when run alone, for any worker count
        t, T_L = kausaite_ideal
        p = simulate.SETS_PER_CHUNK + 3
        plans = [
            make_plan(kind=ProbeKind.TMF, nu=300, m=2, p=p),
            make_plan(kind=ProbeKind.TMC, nu=1000, m=3, p=p),
            make_plan(kind=ProbeKind.TMSV, nu=300, m=3, p=p, n_mean=100.0),
            make_plan(kind=ProbeKind.TMC, nu=300, m=2, p=p),
        ]
        alone = [run_ensembles([plan], t, T_L)[0] for plan in plans]
        for workers in (1, 2):
            together = run_ensembles(plans, t, T_L, workers=workers)
            assert all(map(same, together, alone))

    @pytest.mark.parametrize(
        "change",
        [{"seed": 100}, {"p": 6}, {"tau_s": 1000.0}, {"L0": 1e-6}, None],
        ids=lambda change: next(iter(change)) if change else "no-plans",
    )
    def test_plans_must_share_sets_and_fit(self, kausaite_ideal, change):
        t, T_L = kausaite_ideal
        plan = make_plan(m=2, p=5)
        plans = [plan, dataclasses.replace(plan, **change)] if change else []
        with pytest.raises(ValueError, match="sharing seed, p, tau_s and L0"):
            run_ensembles(plans, t, T_L)

    def test_first_failing_plan_in_given_order_raises(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal

        def hopeless(t, Y, *args, **kwargs):
            return dataclasses.replace(
                fit_sensorgrams(t, Y, *args, **kwargs), converged=np.zeros(len(Y), dtype=bool)
            )

        monkeypatch.setattr(simulate, "fit_sensorgrams", hopeless)
        two, three = make_plan(m=2, p=2), make_plan(m=3, p=2)
        with pytest.raises(LowSignalError, match="all 2 fits failed"):
            run_ensembles([two, three], t, T_L)
        with pytest.raises(LowSignalError, match="all 3 fits failed"):
            run_ensembles([three, two], t, T_L)


# the 24 points of the README sweep at p=5: 1,200 fits, TMSV at nu=100 among them
README_PLANS = [
    make_plan(kind=kind, nu=nu, m=10, p=5, seed=42, n_mean=n_mean)
    for kind in ProbeKind
    for n_mean in (10.0, 100.0, 1000.0)
    for nu in (100, 1000)
]
# tracemalloc peak of one block fit, per row; the block solve needs about 5 KB
FIT_BYTES_PER_ROW = 7_000


class TestSharedBlocks:
    def test_one_block_equals_per_plan_blocks(self, kausaite_ideal):
        # each plan's block is C-ordered like the whole stack, so every row sum
        # runs in one order; Fortran-ordered segments moved two TMSV rows by 1e-13
        t, T_L = kausaite_ideal
        blocks = [synthesize_noisy_sensorgrams(T_L, plan, range(plan.p)) for plan in README_PLANS]
        head = README_PLANS[0]
        whole = fit_sensorgrams(t, np.concatenate(blocks), head.tau_s, head.L0)
        per_plan = [fit_sensorgrams(t, Y, head.tau_s, head.L0) for Y in blocks]
        assert len(whole.k_d) == 1200
        for field in dataclasses.fields(whole):
            stacked = np.concatenate([getattr(fits, field.name) for fits in per_plan])
            assert np.array_equal(getattr(whole, field.name), stacked), field.name

    @pytest.mark.parametrize("rows_per_block", [1, 10**6], ids=["plan-per-block", "one-block"])
    def test_run_independent_of_rows_per_block(self, kausaite_ideal, monkeypatch, rows_per_block):
        # at the default budget the README plans share blocks five at a time
        t, T_L = kausaite_ideal
        shared = run_ensembles(README_PLANS, t, T_L)
        monkeypatch.setattr(simulate, "ROWS_PER_BLOCK", rows_per_block)
        assert all(map(same, run_ensembles(README_PLANS, t, T_L), shared))

    def test_fit_memory_per_row_is_bounded(self, kausaite_ideal):
        # a deterministic allocation count, not a timing: the shared-block
        # budget relies on the block solve's temporaries staying this small
        t, T_L = kausaite_ideal
        plan = make_plan(kind=ProbeKind.TMSV, nu=100, m=8, p=32, seed=42)
        Y = synthesize_noisy_sensorgrams(T_L, plan, sets=range(32))  # 256 rows, a full block
        fit_sensorgrams(t, Y, plan.tau_s, plan.L0)  # first call: lazy set-up
        tracemalloc.start()
        try:
            fit_sensorgrams(t, Y, plan.tau_s, plan.L0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= FIT_BYTES_PER_ROW * len(Y)

    def test_segments_need_increasing_t(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan()
        with pytest.raises(ValueError, match="increasing"):
            fit_sensorgrams(t[::-1], T_L[None], plan.tau_s, plan.L0)


class TestEnhancementRatios:
    def test_identical_ensembles_give_unity(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        res = run_ensembles([make_plan(nu=300, m=2, p=4)], t, T_L)[0]
        ratios = enhancement_Rk(res, res)
        assert ratios == {"k_a": 1.0, "k_s": 1.0, "k_d": 1.0}

    def test_mismatched_plans_rejected(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plans = [make_plan(nu=300, m=2, p=4), make_plan(nu=600, m=2, p=4, kind=ProbeKind.TMF)]
        a, b = run_ensembles(plans, t, T_L)
        with pytest.raises(ValueError, match="plans differ"):
            enhancement_Rk(a, b)

    def test_mismatched_photon_number_rejected(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        a, b = run_ensembles(
            [
                make_plan(nu=300, m=2, p=4, n_mean=10.0),
                make_plan(nu=300, m=2, p=4, kind=ProbeKind.TMF, n_mean=12.0),
            ],
            t,
            T_L,
        )
        with pytest.raises(ValueError, match="photon"):
            enhancement_Rk(a, b)

    def test_m_enhancement_identity(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        res = run_ensembles([make_plan(nu=300, m=2, p=4)], t, T_L)[0]
        assert m_enhancement(res, res) == {"k_a": 1.0, "k_s": 1.0, "k_d": 1.0}

    def test_m_enhancement_requires_matched_plans(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        a, b = run_ensembles([make_plan(nu=300, m=2, p=4), make_plan(nu=600, m=4, p=4)], t, T_L)
        with pytest.raises(ValueError, match="plans differ"):
            m_enhancement(b, a)

    def test_quadrupling_m_doubles_precision(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plans = [make_plan(nu=100, m=m, p=150, seed=42) for m in (10, 40)]
        r10, r40 = run_ensembles(plans, t, T_L, workers=2)
        gains = m_enhancement(r40, r10)
        for name, gain in gains.items():
            assert abs(gain / 2.0 - 1.0) < 0.15, (name, gain)


class TestPlanValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            make_plan(p=0)
        with pytest.raises(ValueError):
            make_plan(m=0)
        with pytest.raises(ValueError):
            make_plan(nu=0)

    def test_seed_range(self):
        for seed in (2**63, -1):
            with pytest.raises(ValueError):
                make_plan(seed=seed)

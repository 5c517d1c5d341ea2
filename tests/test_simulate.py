"""Monte Carlo ensemble engine: determinism, noise law, aggregation policy."""
import dataclasses
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from substream_reference import sensorgram_substream, standard_normals

import qspr.fit as fit_module
import qspr.simulate as simulate
from qspr.cases import KAUSAITE2007
from qspr.fit import fit_sensorgrams
from qspr.kinetics import linearize_sensorgram, reconstruct_transmittance_sensorgram
from qspr.probes import ProbeKind, ProbeState, ScenarioMode, SensingScenario, delta_M, mean_M
from qspr.simulate import (
    LowSignalError,
    SimulationPlan,
    enhancement_Rk,
    run_ensembles,
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


def zero_normals(seed, sets, m, n):
    """Stand-in for ``_substream_normals`` that draws no noise at all."""
    return np.zeros((len(sets), m, n))


def same(a, b) -> bool:
    """Whether two ensemble results hold the same plan and the same bits."""
    return (
        a.plan == b.plan
        and np.array_equal(a.kbars, b.kbars)
        and np.array_equal(a.usable, b.usable)
    )


class TestSubstreams:
    def test_repeatable_and_disjoint(self):
        a1 = simulate._substream_normals(7, [2], 4, 100)[0, 3]
        a2 = simulate._substream_normals(7, [2, 3], 4, 100)[0, 3]
        b = simulate._substream_normals(7, [3], 4, 100)[0, 2]
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_normals_are_standard(self):
        z = simulate._substream_normals(1, [0], 1, 200_000)[0, 0]
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    def test_batched_keys_equal_seed_sequence_keys(self, seed):
        # the seed takes one or two entropy words, each index one: the widest
        # values of every word against numpy's own SeedSequence and Philox
        sets = [0, 1, 2**32 - 1]
        keys = simulate._philox_keys(seed, sets, 2)
        assert keys.shape == (3, 2, 2) and keys.dtype == np.uint64
        for i, set_index in enumerate(sets):
            for j in range(2):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(set_index, j))
                assert np.array_equal(keys[i, j], np.random.Philox(ss).state["state"]["key"])

    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_normals_equal_per_substream_draws(self, m):
        Z = simulate._substream_normals(99, [4, 1], m, 221)
        for i, set_index in enumerate([4, 1]):
            for j in range(m):
                ref = standard_normals(sensorgram_substream(99, set_index, j), 221)
                assert np.array_equal(Z[i, j], ref), (set_index, j)


class TestSynthesize:
    def test_zero_noise_returns_mean(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal
        plan = make_plan()
        monkeypatch.setattr(simulate, "_substream_normals", zero_normals)
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

    def test_plans_share_one_draw(self, kausaite_ideal):
        # several plans sharing a seed read one draw: their rows, plan after
        # plan, are each plan's own rows bit for bit
        t, T_L = kausaite_ideal
        plans = [make_plan(m=3), make_plan(kind=ProbeKind.TMSV, nu=300, m=1), make_plan(m=2)]
        together = synthesize_noisy_sensorgrams(T_L, plans, sets=[4, 1])
        alone = [synthesize_noisy_sensorgrams(T_L, plan, sets=[4, 1]) for plan in plans]
        assert np.array_equal(together, np.concatenate(alone))
        with pytest.raises(ValueError, match="sharing a seed"):
            synthesize_noisy_sensorgrams(T_L, [plans[0], make_plan(seed=100)], sets=[0])

    def test_sample_mean_matches_specified_law(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan(nu=100, m=10_000, p=1)
        idx = 42
        draws = synthesize_noisy_sensorgrams(T_L, plan, sets=[0])[:, idx]
        mu = mean_M(plan.state, T_L[idx], 1.0, 1.0)
        sigma = delta_M(plan.state, T_L[idx], 1.0, 1.0) / np.sqrt(plan.nu)
        assert abs(draws.mean() - mu) < 4.0 * sigma / np.sqrt(draws.size)
        assert draws.std() == pytest.approx(sigma, rel=0.05)

    @pytest.mark.parametrize("bad", [2**32, -1, 1.5], ids=["2**32", "negative", "fraction"])
    def test_rejects_set_indices_outside_one_key_word(self, kausaite_ideal, bad):
        # a set index is one uint32 word of its substreams' keys
        _, T_L = kausaite_ideal
        plan = make_plan()
        assert synthesize_noisy_sensorgrams(T_L, plan, sets=[2**32 - 1]).shape == (plan.m, T_L.size)
        with pytest.raises(ValueError, match="^sets must"):
            synthesize_noisy_sensorgrams(T_L, plan, sets=[0, bad])

    def test_rejects_unphysical_transmittance(self, kausaite_ideal):
        t, _ = kausaite_ideal
        plan = make_plan()
        with pytest.raises(ValueError):
            synthesize_noisy_sensorgrams(np.full_like(t, 1.5), plan, sets=[0])


class TestRunEnsemble:
    def test_zero_noise_collapses_to_ideal_fit(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal
        plan = make_plan(p=4, m=2)
        monkeypatch.setattr(simulate, "_substream_normals", zero_normals)
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

    def test_parallel_execution_identical(self, kausaite_ideal, monkeypatch):
        # three chunks of sets, so every worker count splits the work differently
        t, T_L = kausaite_ideal
        plan = make_plan(nu=200, m=2, p=134, seed=5)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", 100)  # 45, 45 and 44 sets
        assert simulate._chunk_count(plan.p, plan.m) == 3
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

    def test_sets_beyond_the_result_budget_raise_before_any_draw(self, kausaite_ideal, monkeypatch):
        # two plans at p = 2**25 would hold 2 GiB of set results: the engine
        # refuses them itself, before a chunk draws its normals
        def never(*args, **kwargs):
            raise AssertionError("normals drawn")

        monkeypatch.setattr(simulate, "_substream_normals", never)
        t, T_L = kausaite_ideal
        p = simulate.RESULT_BUDGET_BYTES // simulate.BYTES_PER_SET
        plans = [make_plan(m=2, p=p), make_plan(kind=ProbeKind.TMF, m=2, p=p)]
        line = (
            f"p times the plans a run fits must be <= {p} (32 B per set within "
            f"{simulate.RESULT_BUDGET_BYTES} B); got {p} * 2"
        )
        with pytest.raises(ValueError) as excinfo:
            run_ensembles(plans, t, T_L)
        assert str(excinfo.value) == line

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
    def test_equals_per_plan_runs(self, kausaite_ideal, monkeypatch):
        # mixed states, nu and m over two chunks of sets: each plan's result is
        # exactly its result when run alone, for any worker count
        t, T_L = kausaite_ideal
        p = 67
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", 340)  # 34 sets of 10 rows
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

    @pytest.mark.parametrize("rows_per_chunk", [None, 100, 30], ids=["default", "100", "30"])
    def test_each_chunk_is_one_fit_of_whole_sets(self, kausaite_ideal, monkeypatch, rows_per_chunk):
        # 40 rows per set: at the default budget a chunk holds at most 51 sets,
        # so the 70 sets are two chunks of 35; a budget below m still fits one
        # whole set
        t, T_L = kausaite_ideal
        plan = make_plan(m=40, p=70, seed=42)
        if rows_per_chunk:
            monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", rows_per_chunk)
        # sensorgram 0 of each set, as the fit receives it
        firsts = synthesize_noisy_sensorgrams(T_L, dataclasses.replace(plan, m=1), range(plan.p))
        set_of = {row.tobytes(): s for s, row in enumerate(firsts)}
        calls = []

        def spy(t, Y, *args, **kwargs):
            calls.append((len(Y), [set_of[row.tobytes()] for row in Y.columns(0, t.size)[:: plan.m]]))
            return fit_sensorgrams(t, Y, *args, **kwargs)

        monkeypatch.setattr(simulate, "fit_sensorgrams", spy)
        run_ensembles([plan], t, T_L)
        assert max(rows for rows, _ in calls) <= max(simulate.ROWS_PER_CHUNK, plan.m)
        assert [s for _, sets in calls for s in sets] == list(range(plan.p))

    @pytest.mark.parametrize(
        "p,rows_per_set,budget,sizes",
        [
            (1500, 2, None, [750, 750]),  # --paper-fidelity, one plan with m=2
            (5, 300, None, [5]),  # the README sweep at p=5 is one chunk
            (70, 40, 100, [2] * 35),
            (71, 40, 100, [2] * 35 + [1]),
            (7, 40, 30, [1] * 7),
            (200, 300, None, [6] * 30 + [5] * 4),  # the README sweep at p=200
        ],
    )
    def test_chunks_are_equal_runs_of_whole_sets(self, monkeypatch, p, rows_per_set, budget, sizes):
        # the fewest chunks within the row budget (at least one set each), whose
        # sizes differ by at most one set
        if budget:
            monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", budget)
        chunks = list(simulate._chunks(p, simulate._chunk_count(p, rows_per_set)))
        assert sorted(len(chunk) for chunk in chunks) == sorted(sizes)
        assert [s for chunk in chunks for s in chunk] == list(range(p))
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1

    def test_pool_bounds_chunks_in_flight(self, kausaite_ideal, monkeypatch):
        # 20 chunks of one set on 2 workers: a chunk is submitted only while
        # fewer than 4 submitted chunks are uncollected, and results are
        # collected in set order, so they equal the serial run bit for bit
        t, T_L = kausaite_ideal
        plan = make_plan(nu=300, m=2, p=20, seed=5)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", plan.m)
        outstanding, in_flight = set(), []

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                collect = future.result

                def result(timeout=None):
                    outstanding.discard(future)
                    return collect(timeout)

                future.result = result
                outstanding.add(future)
                in_flight.append(len(outstanding))
                return future

        serial = run_ensembles([plan], t, T_L)[0]
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        pooled = run_ensembles([plan], t, T_L, workers=2)[0]
        assert len(in_flight) == 20 and max(in_flight) == 4
        assert same(serial, pooled)

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
# growth of a block fit's tracemalloc peak per row beyond 256 rows: about 1.3 KB,
# the row's segment data (at most 111 samples, 888 B) and its LM state; the
# evaluation temporaries are bounded by fit.ROWS_PER_SLICE and do not grow
FIT_BYTES_PER_EXTRA_ROW = 2_000


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

    @pytest.mark.parametrize(
        "rows_per_chunk,rows_per_slice",
        [
            pytest.param(chunk, size, id=name + (f"-slice-{size}" if size else ""))
            for size in (None, 1, 7, 10**6)
            for chunk, name in ((1, "plan-per-block"), (10**6, "one-block"))
        ],
    )
    def test_run_independent_of_rows_per_block(
        self, kausaite_ideal, monkeypatch, rows_per_chunk, rows_per_slice
    ):
        # at the default budget the README plans' 1,200 rows are one chunk,
        # evaluated fit.ROWS_PER_SLICE rows at a time (None keeps that default);
        # ROWS_PER_CHUNK = 1 fits one set of all 24 plans per chunk, and 10**6
        # all five sets in one chunk
        t, T_L = kausaite_ideal
        shared = run_ensembles(README_PLANS, t, T_L)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", rows_per_chunk)
        if rows_per_slice:
            monkeypatch.setattr(fit_module, "ROWS_PER_SLICE", rows_per_slice)
        assert all(map(same, run_ensembles(README_PLANS, t, T_L), shared))

    def test_fit_memory_per_row_is_bounded(self, kausaite_ideal):
        # a deterministic allocation count, not a timing: a block fit's memory
        # grows only by each row's segment data and LM state, so chunks of
        # ROWS_PER_CHUNK rows cost little more than chunks of 256
        t, T_L = kausaite_ideal
        plan = make_plan(kind=ProbeKind.TMSV, nu=100, m=8, p=256, seed=42)
        law = simulate._noise_law(plan, T_L)

        def peak(sets: int) -> int:
            # the block as _fit_chunk hands it over: normals plus the noise law
            Z = simulate._substream_normals(plan.seed, range(sets), plan.m, t.size)
            rows = simulate._NoisyRows(Z, [(plan.m, *law)])
            tracemalloc.start()
            try:
                fit_sensorgrams(t, rows, plan.tau_s, plan.L0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fit_sensorgrams(t, T_L[None], plan.tau_s, plan.L0)  # first call: lazy set-up
        small, large = peak(32), peak(256)  # 256 and 2,048 rows
        assert (large - small) / (2048 - 256) <= FIT_BYTES_PER_EXTRA_ROW

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

    def test_quadrupling_m_doubles_precision(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plans = [make_plan(nu=100, m=m, p=150, seed=42) for m in (10, 40)]
        r10, r40 = run_ensembles(plans, t, T_L, workers=2)
        gains = r10.precision / r40.precision
        for name, gain in zip(simulate.PARAMETER_NAMES, gains):
            assert abs(gain / 2.0 - 1.0) < 0.15, (name, gain)


class TestPlanValidation:
    def test_counts_bounded_by_one_key_word(self):
        # set and sensorgram indices are one uint32 word each in the substream keys
        assert make_plan(m=2**32, p=2**32).p == 2**32
        for name in ("m", "p"):
            with pytest.raises(ValueError, match=f"{name} must be <= 2\\*\\*32"):
                make_plan(**{name: 2**32 + 1})

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

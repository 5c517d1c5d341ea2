"""Monte Carlo ensemble engine: determinism, noise law, aggregation policy."""
import dataclasses
import math
import os
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtri
from substream_reference import clamped_uniforms

import qspr.fit as fit_module
import qspr.simulate as simulate
from qspr.cases import KAUSAITE2007
from qspr.fit import fit_sensorgrams
from qspr.probes import ProbeKind, ProbeState, ScenarioMode, SensingScenario, delta_M, mean_M
from qspr.simulate import (
    LowSignalError,
    SimulationPlan,
    run_ensembles,
    synthesize_noisy_sensorgrams,
)

NO_LOSS = SensingScenario(mode=ScenarioMode.STANDARD, eta_a=1.0)
KINETICS = KAUSAITE2007.kinetics
SEED = 99


@pytest.fixture
def kausaite_ideal(kausaite2007):
    """The kausaite2007 time grid and linearized transmittance (read-only)."""
    trace, T_L = kausaite2007
    return trace.t, T_L


def make_plan(kind=ProbeKind.TMC, nu=1000, m=3, n_mean=10.0, scenario=NO_LOSS):
    return SimulationPlan(nu=nu, m=m, state=ProbeState(kind=kind, n_mean=n_mean), scenario=scenario)


def run(plans, t, T_L, p=5, seed=SEED, workers=1):
    """The plans as one run of p sets on the kausaite2007 kinetics."""
    return run_ensembles(plans, t, T_L, KINETICS, seed, p, workers=workers)


def zero_normals(seed, sets, m, n):
    """Stand-in for ``_substream_normals`` that draws no noise at all."""
    return np.zeros((len(sets), m, n))


def same(a, b) -> bool:
    """Whether two ensemble results, and their twins, hold the same plan and bits."""
    if a is None or b is None:
        return a is b
    return (
        a.plan == b.plan
        and np.array_equal(a.kbars, b.kbars)
        and np.array_equal(a.usable, b.usable)
        and same(a.twin, b.twin)
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
        # the batched keys and re-keyed generator give each substream's own
        # uniforms; TestNdtri checks the transform against scipy
        Z = simulate._substream_normals(99, [4, 1], m, 221)
        for i, set_index in enumerate([4, 1]):
            for j in range(m):
                ref = simulate._ndtri(clamped_uniforms(99, set_index, j, 221))
                assert np.array_equal(Z[i, j], ref), (set_index, j)


class TestNdtri:
    """The normal transform against scipy.special.ndtri, its independent reference.

    2e6 Philox uniforms floored at 2**-53 as the draw floors them; 2**-k and
    1 - 2**-k for k = 1 ... 53, which reach the far tails (P2/Q2); and the
    doubles next to the branch edges e**-2 and 1 - e**-2.
    """

    @pytest.fixture(scope="class")
    def uniforms(self):
        k = np.arange(1, 54)
        edges = np.array([[math.exp(-2)], [1.0 - math.exp(-2)]])
        near = edges + np.arange(-3, 4) * np.spacing(edges)
        drawn = np.random.Generator(np.random.Philox(2024)).random(2_000_000)
        return np.concatenate([2.0**-k, 1.0 - 2.0**-k, near.ravel(), np.maximum(drawn, 2.0**-53)])

    @pytest.fixture(scope="class")
    def normals(self, uniforms):
        return simulate._ndtri(uniforms.copy())

    @pytest.fixture(scope="class")
    def tails(self, uniforms):
        return (uniforms <= math.exp(-2)) | (uniforms > 1.0 - math.exp(-2))

    def test_raises_no_warning(self, uniforms):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate._ndtri(uniforms.copy())

    def test_central_branch_is_bit_identical(self, uniforms, normals, tails):
        assert np.array_equal(normals[~tails], ndtri(uniforms[~tails]))

    def test_tails_are_bit_identical_where_numpy_log_is_libm_log(self, uniforms, normals, tails):
        # the tails take np.log of y = min(u, 1 - u) and of x = sqrt(-2 ln y);
        # scipy takes the platform libm's log, as math.log does. Where numpy's
        # log dispatch is libm's (NPY_DISABLE_CPU_FEATURES in CI), that is every entry
        u = uniforms[tails]
        y = np.minimum(u, 1.0 - u)
        log_y = np.log(y)
        x = np.sqrt(-2.0 * log_y)
        libm = (log_y == [math.log(v) for v in y]) & (np.log(x) == [math.log(v) for v in x])
        assert libm.mean() > 0.99
        assert np.array_equal(normals[tails][libm], ndtri(u[libm]))

    def test_tails_within_8_ulp(self, uniforms, normals, tails):
        # measured: at most 4 ulp over these inputs with numpy 2.4's AVX-512 log
        # on a Xeon with AVX-512, 0 with its libm log
        reference = ndtri(uniforms[tails])
        assert np.all(np.abs(normals[tails] - reference) <= 8 * np.spacing(np.abs(reference)))

    @pytest.mark.parametrize("offset", [0, 1, 3, 17, 39])
    @pytest.mark.parametrize("length", [1, 3, 7, 8, 9, 17, 1000])
    def test_each_entry_independent_of_its_slice(self, uniforms, normals, offset, length):
        part = slice(offset, offset + length)
        assert np.array_equal(simulate._ndtri(uniforms[part].copy()), normals[part])

    def test_each_entry_independent_of_the_block(self, uniforms, normals, monkeypatch):
        monkeypatch.setattr(simulate, "NDTRI_BLOCK", 4_099)
        assert np.array_equal(simulate._ndtri(uniforms[:100_000].copy()), normals[:100_000])


class TestSynthesize:
    def test_zero_noise_returns_mean(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal
        plan = make_plan()
        monkeypatch.setattr(simulate, "_substream_normals", zero_normals)
        got = synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[0, 1])
        assert got.shape == (2 * plan.m, t.size)
        for row in got:
            assert row == pytest.approx(mean_M(plan.state, T_L, 1.0, 1.0), rel=1e-14)

    def test_fixed_seed_bit_identical(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan()
        one = synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[0])
        two = synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[0])
        assert np.array_equal(one, two)

    def test_rows_follow_set_and_sensorgram_substreams(self, kausaite_ideal):
        # row i*m + j is sensorgram j of the i-th requested set, whatever the
        # other requested sets: the (seed, set, sensorgram) substreams fix the noise
        t, T_L = kausaite_ideal
        plan = make_plan()
        block = synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[4, 1])
        mean = mean_M(plan.state, T_L, 1.0, 1.0)
        sigma = delta_M(plan.state, T_L, 1.0, 1.0) / np.sqrt(plan.nu)
        for i, set_index in enumerate([4, 1]):
            for j in range(plan.m):
                z = simulate._ndtri(clamped_uniforms(SEED, set_index, j, t.size))
                assert np.array_equal(block[i * plan.m + j], mean + sigma * z)
        assert np.array_equal(synthesize_noisy_sensorgrams(T_L, [plan], SEED, [1]), block[plan.m :])

    def test_plans_share_one_draw(self, kausaite_ideal):
        # several plans read one draw: their rows, plan after plan, are each
        # plan's own rows bit for bit
        t, T_L = kausaite_ideal
        plans = [make_plan(m=3), make_plan(kind=ProbeKind.TMSV, nu=300, m=1), make_plan(m=2)]
        together = synthesize_noisy_sensorgrams(T_L, plans, SEED, sets=[4, 1])
        alone = [synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[4, 1]) for plan in plans]
        assert np.array_equal(together, np.concatenate(alone))

    def test_sample_mean_matches_specified_law(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan(nu=100, m=10_000)
        idx = 42
        draws = synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[0])[:, idx]
        mu = mean_M(plan.state, T_L[idx], 1.0, 1.0)
        sigma = delta_M(plan.state, T_L[idx], 1.0, 1.0) / np.sqrt(plan.nu)
        assert abs(draws.mean() - mu) < 4.0 * sigma / np.sqrt(draws.size)
        assert draws.std() == pytest.approx(sigma, rel=0.05)

    @pytest.mark.parametrize("bad", [2**32, -1, 1.5], ids=["2**32", "negative", "fraction"])
    def test_rejects_set_indices_outside_one_key_word(self, kausaite_ideal, bad):
        # a set index is one uint32 word of its substreams' keys
        _, T_L = kausaite_ideal
        plan = make_plan()
        top = synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[2**32 - 1])
        assert top.shape == (plan.m, T_L.size)
        with pytest.raises(ValueError, match="^sets must"):
            synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[0, bad])

    def test_rejects_unphysical_transmittance(self, kausaite_ideal):
        t, _ = kausaite_ideal
        plan = make_plan()
        with pytest.raises(ValueError):
            synthesize_noisy_sensorgrams(np.full_like(t, 1.5), [plan], SEED, sets=[0])


class TestRunEnsemble:
    def test_zero_noise_collapses_to_ideal_fit(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal
        plan = make_plan(m=2)
        monkeypatch.setattr(simulate, "_substream_normals", zero_normals)
        res = run([plan], t, T_L, p=4)[0]  # serial: the patch reaches every draw
        ideal = fit_sensorgrams(
            t, mean_M(plan.state, T_L, 1.0, 1.0)[None], KINETICS.tau_s, KINETICS.L0
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
        res = run([make_plan(nu=1000, m=10)], t, T_L, p=300, seed=42)[0]
        assert res.failed_fit_count == 0
        assert abs(res.estimate[2] - 7.771e-3) < 3.0 * res.precision[2]  # k_d

    def test_parallel_execution_identical(self, kausaite_ideal, monkeypatch):
        # three chunks of sets, so every worker count splits the work differently
        t, T_L = kausaite_ideal
        plan = make_plan(nu=200, m=2)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", 100)  # 45, 45 and 44 sets
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # 3 workers on any host
        assert simulate._chunk_count(134, plan.m) == 3
        serial = run([plan], t, T_L, p=134, seed=5)[0]
        for workers in (2, 3):
            parallel = run([plan], t, T_L, p=134, seed=5, workers=workers)[0]
            assert same(serial, parallel)  # bit-identical aggregation

    def test_rerun_bit_identical(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plan = make_plan(nu=500, m=2)
        assert same(run([plan], t, T_L, p=4)[0], run([plan], t, T_L, p=4)[0])

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
            run([make_plan(m=3)], t, T_L, p=2)

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
        res = run([make_plan(m=4)], t, T_L, p=5)[0]
        assert res.failed_fit_count == 5
        assert res.total_fits == 20
        assert res.failed_fit_count / res.total_fits == 0.25
        assert res.unreliable

    def test_kbars_average_each_set_over_its_usable_fits(self, kausaite_ideal, monkeypatch):
        # an independent recomputation of the set averages: each set is drawn and
        # fitted on its own, and a fit fails by a rule that reads only its own rates
        t, T_L = kausaite_ideal
        plan, p = make_plan(nu=300, m=4), 6

        def usable(fits):
            return fits.converged & (fits.k_d <= 7.771e-3)  # the noise-free k_d

        def failing(*args, **kwargs):
            fits = fit_sensorgrams(*args, **kwargs)
            return dataclasses.replace(fits, converged=usable(fits))

        monkeypatch.setattr(simulate, "fit_sensorgrams", failing)
        res = run([plan], t, T_L, p=p)[0]
        for i in range(p):
            Y = synthesize_noisy_sensorgrams(T_L, [plan], SEED, [i])
            fits = fit_sensorgrams(t, Y, KINETICS.tau_s, KINETICS.L0)
            ok = usable(fits)
            assert res.usable[i] == ok.sum()
            rates = np.column_stack([fits.k_a, fits.k_s, fits.k_d])[ok]
            assert np.array_equal(res.kbars[i], rates.mean(axis=0)), i
        assert res.kbars.shape == (p, 3)
        assert 0 < res.failed_fit_count == plan.m * p - res.usable.sum()

    def test_needs_two_sets(self, kausaite_ideal):
        # the precision is a standard deviation over sets: one set would report
        # 0.0 for every rate, and R_k would divide by it
        t, T_L = kausaite_ideal
        plans = [make_plan(m=2), make_plan(kind=ProbeKind.TMF, m=2)]
        with pytest.raises(ValueError, match="p must be >= 2"):
            run(plans, t, T_L, p=1)

    def test_sets_beyond_the_result_budget_raise_before_any_draw(self, kausaite_ideal, monkeypatch):
        # two plans at p = 2**25 would hold 2 GiB of set results: the engine
        # refuses them itself, before a chunk draws its normals
        def never(*args, **kwargs):
            raise AssertionError("normals drawn")

        monkeypatch.setattr(simulate, "_substream_normals", never)
        t, T_L = kausaite_ideal
        p = simulate.RESULT_BUDGET_BYTES // simulate.BYTES_PER_SET
        plans = [make_plan(m=2), make_plan(kind=ProbeKind.TMF, m=2)]
        line = (
            f"p times the plans a run fits must be <= {p} (32 B per set within "
            f"{simulate.RESULT_BUDGET_BYTES} B); got {p} * 2"
        )
        with pytest.raises(ValueError) as excinfo:
            run(plans, t, T_L, p=p)
        assert str(excinfo.value) == line

    def test_precision_stable_in_p(self, kausaite_ideal):
        # the kbar distribution summary has settled by p=1500: doubling the
        # number of sets moves the reported precision by less than 5%
        t, T_L = kausaite_ideal
        plan = make_plan(nu=100, m=4)
        small = run([plan], t, T_L, p=1500, seed=42, workers=2)[0]
        large = run([plan], t, T_L, p=3000, seed=42, workers=2)[0]
        for name, a, b in zip(simulate.PARAMETER_NAMES, small.precision, large.precision):
            assert abs(b / a - 1.0) < 0.05, name

    def test_space_equivalence(self, kausaite_ideal):
        # fitting the measurement-space trace and its affine image in
        # transmittance space yields the same rates for the same random stream
        t, T_L = kausaite_ideal
        plan = make_plan(nu=1000)
        y_m = synthesize_noisy_sensorgrams(T_L, [plan], SEED, sets=[0])[0]
        slope = plan.scenario.eta_a * plan.state.n_mean
        intercept = -plan.scenario.eta_b * plan.state.n_reference
        y_t = (y_m - intercept) / slope  # Tbar with noise delta_T/sqrt(nu)
        fit_m = fit_sensorgrams(t, y_m[None], KINETICS.tau_s, KINETICS.L0)
        fit_t = fit_sensorgrams(t, y_t[None], KINETICS.tau_s, KINETICS.L0)
        assert fit_m.k_s[0] == pytest.approx(fit_t.k_s[0], rel=1e-8)
        assert fit_m.k_d[0] == pytest.approx(fit_t.k_d[0], rel=1e-8)


class TestRunEnsembles:
    def test_equals_per_plan_runs(self, kausaite_ideal, monkeypatch):
        # mixed states, nu and m over two chunks of sets: each plan's result is
        # exactly its result when run alone, for any worker count
        t, T_L = kausaite_ideal
        p = 67
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", 340)  # 34 sets of 10 rows
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # 2 workers on any host
        plans = [
            make_plan(kind=ProbeKind.TMF, nu=300, m=2),
            make_plan(kind=ProbeKind.TMC, nu=1000, m=3),
            make_plan(kind=ProbeKind.TMSV, nu=300, m=3, n_mean=100.0),
            make_plan(kind=ProbeKind.TMC, nu=300, m=2),
        ]
        alone = [run([plan], t, T_L, p=p)[0] for plan in plans]
        for workers in (1, 2):
            together = run(plans, t, T_L, p=p, workers=workers)
            assert all(map(same, together, alone))

    @pytest.mark.parametrize("plans", [[]], ids=["no-plans"])
    def test_plans_must_share_sets_and_fit(self, kausaite_ideal, plans):
        # the run gives every plan its seed, sets and fit; it needs a plan to give them to
        t, T_L = kausaite_ideal
        with pytest.raises(ValueError, match="needs one or more plans"):
            run(plans, t, T_L)

    @pytest.mark.parametrize("rows_per_chunk", [None, 100, 30], ids=["default", "100", "30"])
    def test_each_chunk_is_one_fit_of_whole_sets(self, kausaite_ideal, monkeypatch, rows_per_chunk):
        # 40 rows per set: at the default budget a chunk holds at most 51 sets,
        # so the 70 sets are two chunks of 35; a budget below m still fits one
        # whole set
        t, T_L = kausaite_ideal
        plan, p = make_plan(m=40), 70
        if rows_per_chunk:
            monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", rows_per_chunk)
        # sensorgram 0 of each set, as the fit receives it
        firsts = synthesize_noisy_sensorgrams(T_L, [dataclasses.replace(plan, m=1)], 42, range(p))
        set_of = {row.tobytes(): s for s, row in enumerate(firsts)}
        calls = []

        def spy(t, Y, *args, **kwargs):
            calls.append((len(Y), [set_of[row.tobytes()] for row in Y.columns(0, t.size)[:: plan.m]]))
            return fit_sensorgrams(t, Y, *args, **kwargs)

        monkeypatch.setattr(simulate, "fit_sensorgrams", spy)
        run([plan], t, T_L, p=p, seed=42)
        assert max(rows for rows, _ in calls) <= max(simulate.ROWS_PER_CHUNK, plan.m)
        assert [s for _, sets in calls for s in sets] == list(range(p))

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
        plan = make_plan(nu=300, m=2)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", plan.m)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # 2 workers on any host
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

        serial = run([plan], t, T_L, p=20, seed=5)[0]
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        pooled = run([plan], t, T_L, p=20, seed=5, workers=2)[0]
        assert len(in_flight) == 20 and max(in_flight) == 4
        assert same(serial, pooled)

    def test_first_failing_plan_in_given_order_raises(self, kausaite_ideal, monkeypatch):
        t, T_L = kausaite_ideal

        def hopeless(t, Y, *args, **kwargs):
            return dataclasses.replace(
                fit_sensorgrams(t, Y, *args, **kwargs), converged=np.zeros(len(Y), dtype=bool)
            )

        monkeypatch.setattr(simulate, "fit_sensorgrams", hopeless)
        two, three = make_plan(m=2), make_plan(m=3)
        with pytest.raises(LowSignalError, match="all 2 fits failed"):
            run([two, three], t, T_L, p=2)
        with pytest.raises(LowSignalError, match="all 3 fits failed"):
            run([three, two], t, T_L, p=2)

    def test_workers_are_capped_at_the_cpu_count(self, kausaite_ideal, monkeypatch):
        # 8 chunks asked for 64 workers on 2 CPUs: the pool starts 2 workers,
        # and the result equals the serial run bit for bit
        t, T_L = kausaite_ideal
        plan = make_plan(nu=300, m=2)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", plan.m)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(min(max_workers, 2), *args, **kwargs)

        serial = run([plan], t, T_L, p=8)[0]
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        pooled = run_ensembles([plan], t, T_L, KINETICS, SEED, 8, workers=64)[0]
        assert pools == [2]
        assert same(serial, pooled)


# the 24 points of the README sweep at p=5: 1,200 fits, TMSV at nu=100 among them
README_PLANS = [
    make_plan(kind=kind, nu=nu, m=10, n_mean=n_mean)
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
        blocks = [synthesize_noisy_sensorgrams(T_L, [plan], 42, range(5)) for plan in README_PLANS]
        whole = fit_sensorgrams(t, np.concatenate(blocks), KINETICS.tau_s, KINETICS.L0)
        per_plan = [fit_sensorgrams(t, Y, KINETICS.tau_s, KINETICS.L0) for Y in blocks]
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
        shared = run(README_PLANS, t, T_L, p=5, seed=42)
        monkeypatch.setattr(simulate, "ROWS_PER_CHUNK", rows_per_chunk)
        if rows_per_slice:
            monkeypatch.setattr(fit_module, "ROWS_PER_SLICE", rows_per_slice)
        assert all(map(same, run(README_PLANS, t, T_L, p=5, seed=42), shared))

    def test_fit_memory_per_row_is_bounded(self, kausaite_ideal):
        # a deterministic allocation count, not a timing: a block fit's memory
        # grows only by each row's segment data and LM state, so chunks of
        # ROWS_PER_CHUNK rows cost little more than chunks of 256
        t, T_L = kausaite_ideal
        plan = make_plan(kind=ProbeKind.TMSV, nu=100, m=8)
        law = simulate._noise_law(plan, T_L)

        def peak(sets: int) -> int:
            # the block as _fit_chunk hands it over: normals plus the noise law
            Z = simulate._substream_normals(42, range(sets), plan.m, t.size)
            rows = simulate._NoisyRows(Z, [(plan.m, *law)])
            tracemalloc.start()
            try:
                fit_sensorgrams(t, rows, KINETICS.tau_s, KINETICS.L0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fit_sensorgrams(t, T_L[None], KINETICS.tau_s, KINETICS.L0)  # first call: lazy set-up
        small, large = peak(32), peak(256)  # 256 and 2,048 rows
        assert (large - small) / (2048 - 256) <= FIT_BYTES_PER_EXTRA_ROW

    def test_segments_need_increasing_t(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        with pytest.raises(ValueError, match="increasing"):
            fit_sensorgrams(t[::-1], T_L[None], KINETICS.tau_s, KINETICS.L0)


class TestEnhancementRatios:
    def test_classical_plan_is_its_own_twin(self, kausaite_ideal):
        # balanced or not, and with a balanced n_ref given: one plan fitted, R_k exactly 1
        t, T_L = kausaite_ideal
        for n_ref in (None, 10.0, 4.0):
            state = ProbeState(ProbeKind.TMC, 10.0, n_ref)
            plan = SimulationPlan(nu=300, m=2, state=state, scenario=NO_LOSS)
            with pytest.raises(ValueError, match=r"got \d+ \* 1$"):
                run([plan], t, T_L, p=simulate.RESULT_BUDGET_BYTES)
            (res,) = run([plan], t, T_L, p=4)
            assert res.twin is None
            assert res.R_k.tolist() == [1.0, 1.0, 1.0]

    def test_twin_is_the_classical_run_on_the_same_sets(self, kausaite_ideal):
        # the pairing R_k relies on: a TMF plan's twin is, bit for bit, a
        # separate run of its TMC twin with the same seed and p
        t, T_L = kausaite_ideal
        (quantum,) = run([make_plan(kind=ProbeKind.TMF, nu=300, m=2)], t, T_L, p=4)
        (classical,) = run([make_plan(nu=300, m=2)], t, T_L, p=4)
        assert quantum.twin.plan == classical.plan
        assert np.array_equal(quantum.twin.kbars, classical.kbars)
        assert np.array_equal(quantum.twin.usable, classical.usable)
        assert np.array_equal(quantum.R_k, classical.precision / quantum.precision)

    def test_twin_is_the_result_of_the_same_plan_in_the_run(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        classical, quantum = run(
            [make_plan(nu=300, m=2), make_plan(kind=ProbeKind.TMF, nu=300, m=2)], t, T_L, p=4
        )
        assert quantum.twin is classical

    def test_one_result_per_requested_plan(self, kausaite_ideal):
        # a plan given twice gets two results, in the order given; the run
        # fits it and its twin once each, and its budget counts both
        t, T_L = kausaite_ideal
        plan = make_plan(kind=ProbeKind.TMF, nu=300, m=2)
        with pytest.raises(ValueError, match=r"got \d+ \* 2$"):
            run([plan, plan], t, T_L, p=simulate.RESULT_BUDGET_BYTES)
        results = run([plan, plan], t, T_L, p=4)
        assert len(results) == 2 and all(same(res, results[0]) for res in results)

    def test_quadrupling_m_doubles_precision(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        plans = [make_plan(nu=100, m=m) for m in (10, 40)]
        r10, r40 = run(plans, t, T_L, p=150, seed=42, workers=2)
        gains = r10.precision / r40.precision
        for name, gain in zip(simulate.PARAMETER_NAMES, gains):
            assert abs(gain / 2.0 - 1.0) < 0.15, (name, gain)


class TestPlanValidation:
    def test_counts_bounded_by_one_key_word(self, kausaite_ideal):
        # set and sensorgram indices are one uint32 word each in the substream keys;
        # p = 2**32 passes the count check and fails only the result budget
        t, T_L = kausaite_ideal
        assert make_plan(m=2**32).m == 2**32
        with pytest.raises(ValueError, match="m must be <= 2\\*\\*32"):
            make_plan(m=2**32 + 1)
        with pytest.raises(ValueError, match="p must be <= 2\\*\\*32"):
            run([make_plan()], t, T_L, p=2**32 + 1)
        with pytest.raises(ValueError, match="^p times the plans"):
            run([make_plan()], t, T_L, p=2**32)

    def test_counts_must_be_positive(self, kausaite_ideal):
        t, T_L = kausaite_ideal
        with pytest.raises(ValueError, match="p must be >= 2"):
            run([make_plan()], t, T_L, p=0)
        with pytest.raises(ValueError, match="m must be >= 1"):
            make_plan(m=0)
        with pytest.raises(ValueError, match="nu must be >= 1"):
            make_plan(nu=0)

    def test_seed_range(self, kausaite_ideal):
        # the seed takes two entropy words of the substream keys
        t, T_L = kausaite_ideal
        for seed in (2**63, -1):
            with pytest.raises(ValueError, match="^seed must lie in \\[0, 2\\*\\*63\\)$"):
                run([make_plan()], t, T_L, seed=seed)
            with pytest.raises(ValueError, match="^seed must lie in \\[0, 2\\*\\*63\\)$"):
                synthesize_noisy_sensorgrams(T_L, [make_plan()], seed, sets=[0])

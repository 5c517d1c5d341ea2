"""Levenberg-Marquardt solver and the two-segment sensorgram fit."""
import dataclasses

import numpy as np
import pytest

import scalar_reference
from qspr.cases import KAUSAITE2007, LAHIRI1999
import qspr.fit as fit_module
from qspr.fit import MAX_ITERS, fit_sensorgrams, lm_solve, split_at_tau
from qspr.kinetics import SensorgramShape, ideal_sensorgram
from qspr.probes import ProbeKind, ProbeState, ScenarioMode, SensingScenario
from qspr.simulate import SimulationPlan, synthesize_noisy_sensorgrams


class TestLMSolve:
    def test_exact_init_returns_immediately(self):
        t = np.linspace(0.0, 10.0, 50)
        y = 2.0 * np.exp(-0.3 * t)

        def fun(X, rows):
            a, k = X[:, :1], X[:, 1:]
            model = a * np.exp(-k * t)
            J = np.stack([np.exp(-k * t), -a * t * np.exp(-k * t)])
            return model - y, J

        sol = lm_solve(fun, [[2.0, 0.3]])
        assert sol.converged == (True,)
        assert sol.iterations[0] <= 1
        assert sol.x[0] == pytest.approx([2.0, 0.3], rel=1e-14)

    def test_single_exponential_recovery(self):
        t = np.arange(0.0, 505.0, 5.0)
        y = 3.0 * np.exp(-0.02 * t)

        def fun(X, rows):
            a, k = X[:, :1], X[:, 1:]
            decay = np.exp(-k * t)
            return a * decay - y, np.stack([decay, -a * t * decay])

        sol = lm_solve(fun, [[1.0, 0.1]])
        assert sol.converged == (True,)
        assert sol.x[0] == pytest.approx([3.0, 0.02], rel=1e-8)

    def test_rank_deficient_jacobian_stays_finite(self):
        t = np.linspace(0.0, 5.0, 30)
        y = 4.0 * np.exp(-0.5 * t)

        def fun(X, rows):
            # a and b enter only through their sum: Jacobian is rank deficient
            a, b, k = X[:, :1], X[:, 1:2], X[:, 2:]
            decay = np.exp(-k * t)
            r = (a + b) * decay - y
            J = np.stack([decay, decay, -(a + b) * t * decay])
            return r, J

        sol = lm_solve(fun, [[1.0, 1.0, 0.1]])
        assert np.all(np.isfinite(sol.x))
        residual_norm = np.linalg.norm(fun(sol.x, np.arange(1))[0][0])
        assert np.isfinite(residual_norm)
        assert residual_norm < 1e-6  # still reaches the optimum manifold

    def test_accepted_steps_decrease_cost(self):
        t = np.linspace(0.0, 20.0, 60)
        y = 5.0 * np.exp(-0.11 * t) + 0.3
        costs = []

        def fun(X, rows):
            a, b, k = X[:, :1], X[:, 1:2], X[:, 2:]
            decay = np.exp(-k * t)
            r = a * decay + b - y
            costs.append(float(r[0] @ r[0]))
            J = np.stack([decay, np.ones_like(decay), -a * t * decay])
            return r, J

        lm_solve(fun, [[1.0, 0.0, 0.5]])
        # reconstruct the accepted-cost path: a strictly decreasing running minimum;
        # every later evaluation never dips below by acceptance and never replaces
        accepted = [costs[0]]
        for c in costs[1:]:
            if c < accepted[-1]:
                accepted.append(c)
        assert all(b < a for a, b in zip(accepted, accepted[1:]))
        assert accepted[-1] == min(costs)

    def test_iteration_budget_respected(self, monkeypatch):
        t = np.linspace(0.0, 5.0, 40)
        rng = np.random.default_rng(0)
        y = np.sin(t) + 0.5 * rng.standard_normal(t.size)

        def fun(X, rows):
            a, k = X[:, :1], X[:, 1:]
            decay = np.exp(-k * t)
            return a * decay - y, np.stack([decay, -a * t * decay])

        monkeypatch.setattr(fit_module, "MAX_ITERS", 3)
        sol = lm_solve(fun, [[1.0, 1.0]])
        assert sol.iterations[0] <= 3

    def test_rejects_underdetermined_data(self):
        def fun(X, rows):
            return X[:, :1] - 1.0, np.array([[[1.0]], [[0.0]]])

        with pytest.raises(ValueError):
            lm_solve(fun, [[0.0, 0.0]])

    def test_block_rows_solve_independently(self):
        # each row fits its own exponential; a row that starts at its optimum
        # leaves the block at once while the others keep iterating, and every
        # row ends exactly where it ends when solved alone
        t = np.arange(0.0, 505.0, 5.0)
        truth = np.array([[3.0, 0.02], [0.5, 0.001], [2.0, 0.3], [7.0, 0.05]])
        Y = truth[:, :1] * np.exp(-truth[:, 1:] * t)

        def fun(X, rows):
            a, k = X[:, :1], X[:, 1:]
            decay = np.exp(-k * t)
            return a * decay - Y[rows], np.stack([decay, -a * t * decay])

        x0 = np.array([[1.0, 0.1], [1.0, 0.01], [2.0, 0.3], [5.0, 0.04]])
        sol = lm_solve(fun, x0)
        assert sol.converged == (True,) * 4
        assert sol.x == pytest.approx(truth, rel=1e-8)
        assert sol.iterations[2] <= 1 < min(sol.iterations[0], sol.iterations[1], sol.iterations[3])
        for i in range(4):
            alone = lm_solve(lambda X, rows: fun(X, rows + i), x0[i : i + 1])
            assert np.array_equal(alone.x[0], sol.x[i])
            assert alone.iterations[0] == sol.iterations[i]

    @pytest.mark.parametrize("rows_per_slice", [1, 7, 10**6])
    def test_block_result_independent_of_slicing(self, monkeypatch, rows_per_slice):
        # 333 noisy exponentials from one start: rows converge after different
        # numbers of iterations, so the live rows of later evaluations are
        # scattered over the block and cut differently by every slice size
        t = np.arange(0.0, 505.0, 5.0)
        rng = np.random.default_rng(11)
        a, k = rng.uniform(0.5, 5.0, 333), np.exp(rng.uniform(np.log(1e-3), np.log(0.3), 333))
        Y = a[:, None] * np.exp(-k[:, None] * t) + 0.05 * rng.standard_normal((333, t.size))

        def fun(X, rows):
            a, k = X[:, :1], np.exp(np.clip(X[:, 1:], -50.0, 50.0))
            decay = np.exp(-k * t)
            return a * decay - Y[rows], np.stack([decay, -a * k * t * decay])

        x0 = np.tile([1.0, np.log(0.02)], (333, 1))
        default = lm_solve(fun, x0)
        assert len(set(default.iterations)) > 5 and fit_module.ROWS_PER_SLICE < 333
        monkeypatch.setattr(fit_module, "ROWS_PER_SLICE", rows_per_slice)
        sliced = lm_solve(fun, x0)
        for field in dataclasses.fields(default):
            expected = getattr(default, field.name)
            assert np.array_equal(getattr(sliced, field.name), expected), field.name

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_unsolvable_row_leaves_the_others_alone(self):
        # an infinite Jacobian entry gives row 1 NaN steps (its normal
        # equations hold inf, which the solve passes on without raising), and
        # none decreases its residual: that row keeps its start, flagged
        # non-converged, and row 0 ends exactly where it ends when solved alone
        t = np.arange(0.0, 505.0, 5.0)
        Y = np.array([[3.0], [0.5]]) * np.exp(-np.array([[0.02], [0.001]]) * t)

        def fun(X, rows):
            a, k = X[:, :1], X[:, 1:]
            decay = np.exp(-k * t)
            J = np.stack([decay, -a * t * decay])
            J[0, rows == 1, 0] = np.inf
            return a * decay - Y[rows], J

        sol = lm_solve(fun, [[1.0, 0.1], [1.0, 0.01]])
        assert sol.converged == (True, False)
        assert np.array_equal(sol.x[1], [1.0, 0.01])
        alone = lm_solve(fun, [[1.0, 0.1]])
        assert np.array_equal(alone.x[0], sol.x[0]) and alone.iterations[0] == sol.iterations[0]

    def test_singular_row_is_solved_apart_from_the_others(self, monkeypatch):
        # undamped, row 1's normal equations are exactly singular: it fits
        # a + b to its data, so its two Jacobian columns are equal. The batched
        # solve raises, every row is solved again on its own, and row 1, never
        # solvable, ends at its start, flagged non-converged at MAX_ITERS,
        # while row 0 ends exactly where it ends when solved alone
        t = np.linspace(0.0, 5.0, 40)
        T = np.stack([t, np.ones_like(t)])
        Y = np.stack([1.5 + 0.25 * t, 2.0 + np.sin(t)])

        def fun(X, rows):
            a, b = X[:, :1], X[:, 1:]
            J = np.stack([np.ones((len(X), t.size)), T[rows]])
            return a + b * T[rows] - Y[rows], J

        raised, solve = [], np.linalg.solve

        def spy(A, b):
            try:
                return solve(A, b)
            except np.linalg.LinAlgError:
                raised.append(len(A))
                raise

        monkeypatch.setattr(fit_module, "DAMPING_INIT", 0.0)
        monkeypatch.setattr(np.linalg, "solve", spy)
        sol = lm_solve(fun, [[0.0, 0.0], [0.0, 0.0]])
        assert raised[0] == 2 and 1 in raised  # the block's solve, then row 1's alone
        assert sol.converged == (True, False) and sol.iterations[1] == MAX_ITERS
        assert np.array_equal(sol.x[1], [0.0, 0.0])
        alone = lm_solve(fun, [[0.0, 0.0]])
        assert np.array_equal(alone.x[0], sol.x[0]) and alone.iterations[0] == sol.iterations[0]

    def test_views_of_one_reused_buffer_give_the_same_solution(self, monkeypatch):
        # lm_solve reads R and J before it calls fun again, so a fun that
        # returns views of one buffer, overwritten (NaN first) at every call,
        # gives the solution of a fun that returns fresh arrays, bit for bit.
        # Nearly undamped, the block takes rejected steps, and row 6, whose two
        # Jacobian columns are equal, makes the batched solve raise
        t = np.arange(0.0, 505.0, 5.0)
        rng = np.random.default_rng(5)
        a, k = rng.uniform(0.5, 5.0, (6, 1)), rng.uniform(1e-3, 0.3, (6, 1))
        Y = np.vstack([a * np.exp(-k * t) + 0.05 * rng.standard_normal((6, t.size)), np.full(t.size, 2.0)])
        evaluations = []

        def fresh(X, rows):
            a, k = X[:, :1], np.exp(np.clip(X[:, 1:], -50.0, 50.0))
            decay = np.exp(-k * t)
            R, J = a * decay - Y[rows], np.stack([decay, -a * k * t * decay])
            flat = rows == 6
            R[flat] = X[flat, :1] + X[flat, 1:] - Y[rows[flat]]
            J[:, flat] = 1.0
            evaluations.append((rows.copy(), np.vecdot(R, R)))
            return R, J

        buffer = np.empty((3, 3, t.size))

        def reused(X, rows):
            R, J = fresh(X, rows)
            buffer.fill(np.nan)
            buffer[0, : len(X)], buffer[1:, : len(X)] = R, J
            return buffer[0, : len(X)], buffer[1:, : len(X)]

        raised, solve = [], np.linalg.solve

        def spy(A, b):
            try:
                return solve(A, b)
            except np.linalg.LinAlgError:
                raised.append(len(A))
                raise

        monkeypatch.setattr(fit_module, "DAMPING_INIT", 1e-20)
        monkeypatch.setattr(fit_module, "ROWS_PER_SLICE", 3)
        monkeypatch.setattr(np.linalg, "solve", spy)
        x0 = np.tile([1.0, np.log(0.02)], (7, 1))
        expected = lm_solve(fresh, x0)
        best, rejected = np.full(7, np.inf), 0
        for rows, ssq in evaluations:
            rejected += np.count_nonzero(~(ssq < best[rows]))
            best[rows] = np.minimum(best[rows], ssq)
        assert rejected > 0 and raised and raised[0] > 1
        reused_solution = lm_solve(reused, x0)
        for field in dataclasses.fields(expected):
            assert np.array_equal(getattr(reused_solution, field.name), getattr(expected, field.name)), field.name

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_every_exit_leaves_the_block_bit_for_bit(self, monkeypatch):
        # one block whose rows leave by every exit, each kind twice in two
        # orders, so rows leave the running state at scattered positions
        # and in different iterations. Undamped (DAMPING_INIT = 0), the
        # "singular" row's equal Jacobian columns make every solve of it raise;
        # "exhausted" takes one step, then its Jacobian holds an infinite entry
        # and 34 rejected steps use up the damping; "budget" halves its first
        # parameter each step and never meets a test. Every row equals its solo
        # solve bit for bit at every slicing
        t = np.arange(0.0, 505.0, 5.0)
        wave = np.cos(np.pi * np.arange(t.size) / 10.0)
        truth, start = np.array([3.0, np.log(0.02)]), np.array([2.5, np.log(0.025)])

        def exponential(x, y):
            a, k = x[0], np.exp(x[1])
            decay = np.exp(-k * t)
            return a * decay - y, np.stack([decay, -a * k * t * decay])

        def moved_to_inf(x, y):
            r, J = exponential(x, y)
            if not np.array_equal(x, start):
                J[0, 0] = np.inf
            return r, J

        def halving(x):
            # each Gauss-Newton step halves x[0]: no test ever stops it
            return x[0] ** 2 + x[1] * wave, np.stack([np.full_like(t, 2.0 * x[0]), wave])

        exact = exponential(truth, 0.0)[0]
        noisy = exact + 0.05 * np.random.default_rng(3).standard_normal(t.size)
        kinds = {  # residuals and Jacobian of one row's x, and its start
            "stationary": (lambda x: exponential(x, exact), truth),
            "step": (lambda x: exponential(x, exact), start),
            "cost": (lambda x: exponential(x, noisy), start),
            "exhausted": (lambda x: moved_to_inf(x, exact), start),
            "singular": (lambda x: (x[0] + x[1] - 2.0 - wave, np.ones((2, t.size))), np.zeros(2)),
            "budget": (halving, np.ones(2)),
        }
        names = [*kinds, *list(kinds)[2:], *list(kinds)[:2]]  # the block's kind of each row
        evaluations = {name: [] for name in kinds}

        def fun(X, rows):
            assert np.all(np.diff(rows) > 0) and len(rows) <= fit_module.ROWS_PER_SLICE
            R, J = np.empty((len(X), t.size)), np.empty((2, len(X), t.size))
            for i, (x, row) in enumerate(zip(X, rows)):
                R[i], J[:, i] = kinds[names[row]][0](x)
                evaluations[names[row]].append((x.copy(), np.dot(R[i], R[i])))
            return R, J

        raised, solve = [], np.linalg.solve

        def spy(A, b):
            try:
                return solve(A, b)
            except np.linalg.LinAlgError:
                raised.append(len(A))
                raise

        monkeypatch.setattr(fit_module, "DAMPING_INIT", 0.0)
        monkeypatch.setattr(fit_module, "MAX_ITERS", 50)
        monkeypatch.setattr(np.linalg, "solve", spy)
        x0 = np.array([kinds[name][1] for name in names])

        def alone(name):
            first = names.index(name)
            return lm_solve(lambda X, rows: fun(X, rows + first), x0[first : first + 1])

        solo = {name: alone(name) for name in kinds}

        def accepted(name):
            """The row's start and accepted iterates, each with its squared norm."""
            path = [evaluations[name][0]]
            for x, ssq in evaluations[name][1:]:
                if ssq < path[-1][1]:
                    path.append((x, ssq))
            return path

        def last_step(name):
            """|step| / |x| and the relative cost reduction of the last accepted step."""
            (x_prev, ssq_prev), (x, ssq) = accepted(name)[-2:]
            reduction = (ssq_prev - ssq) / max(ssq, np.finfo(float).tiny)
            return np.linalg.norm(x - x_prev) / np.linalg.norm(x), reduction

        outcome = {name: (sol.converged[0], sol.iterations[0]) for name, sol in solo.items()}
        for name in kinds.keys() - {"singular"}:  # one evaluation per iteration
            assert outcome[name][1] == len(evaluations[name]) - 1
        assert outcome["stationary"] == (True, 0) and len(evaluations["stationary"]) == 1
        assert outcome["step"][0] and last_step("step")[0] < 1e-2 * fit_module.STEP_TOLERANCE
        assert outcome["cost"][0] and last_step("cost")[1] <= fit_module.COST_TOLERANCE
        assert last_step("cost")[0] > 1e2 * fit_module.STEP_TOLERANCE
        assert not outcome["exhausted"][0] and outcome["exhausted"][1] < 50
        assert len(accepted("exhausted")) == 2
        assert outcome["singular"] == (False, 50) and len(evaluations["singular"]) == 1 and 1 in raised
        assert outcome["budget"] == (False, 50) and len(accepted("budget")) == 51
        for name in ("exhausted", "budget"):  # the last accepted iterate
            assert np.array_equal(solo[name].x[0], accepted(name)[-1][0])
        assert np.array_equal(solo["singular"].x[0], [0.0, 0.0])

        for rows_per_slice in (1, 3, fit_module.ROWS_PER_SLICE):
            monkeypatch.setattr(fit_module, "ROWS_PER_SLICE", rows_per_slice)
            raised.clear()
            block = lm_solve(fun, x0)
            assert raised[0] == len(names) - 2  # the first solve, of every row but the stationary ones
            for i, name in enumerate(names):
                assert np.array_equal(block.x[i], solo[name].x[0]), (rows_per_slice, name)
                assert (block.converged[i], block.iterations[i]) == outcome[name], (rows_per_slice, name)


class TestRowProducts:
    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_entries_are_dots_of_contiguous_columns(self, rows):
        # every entry of a row's normal equations is np.dot of two of that
        # row's contiguous vectors, bit for bit, whatever the block size, and
        # the row alone gives the same bits as the row inside the block; each
        # row's J^T J is exactly symmetric. The outputs start as NaN, so an
        # entry left unwritten fails
        rng = np.random.default_rng(rows)
        r = rng.standard_normal((rows, 111)) * np.exp(rng.uniform(-20.0, 20.0, (rows, 1)))
        J = rng.standard_normal((3, rows, 111)) * np.exp(rng.uniform(-20.0, 20.0, (3, rows, 1)))

        def products(r, J):
            out = np.full(len(r), np.nan), np.full((len(r), 3, 3), np.nan), np.full((len(r), 3), np.nan)
            fit_module._row_products(r, J, *out)
            return out

        block = products(r, J)
        assert np.array_equal(block[1], block[1].transpose(0, 2, 1))
        for i in range(rows):
            expected = (
                np.dot(r[i], r[i]),
                [[np.dot(a, b) for b in J[:, i]] for a in J[:, i]],
                [np.dot(a, r[i]) for a in J[:, i]],
            )
            alone = products(r[i : i + 1], J[:, i : i + 1])
            for whole, single, dots in zip(block, alone, expected):
                assert np.array_equal(whole[i], dots) and np.array_equal(single[0], dots)


class TestFitSensorgram:
    def test_kausaite_pipeline_rates(self, kausaite2007):
        trace, y = kausaite2007
        res = fit_sensorgrams(trace.t, y[None], tau_s=1100.0, L0=274e-9)
        assert res.converged[0]
        assert res.k_s[0] == pytest.approx(0.0105, rel=0.02)
        assert res.k_d[0] == pytest.approx(7.771e-3, rel=0.02)
        assert res.k_a[0] == pytest.approx(10.029e3, rel=0.02)

    def test_lahiri_pipeline_rates(self, lahiri1999):
        trace, _ = lahiri1999
        res = fit_sensorgrams(trace.t, trace.transmittance[None], tau_s=300.0, L0=2.1)
        assert res.converged[0]
        assert res.k_s[0] == pytest.approx(22.98e-3, rel=0.005)
        assert res.k_d[0] == pytest.approx(15e-3, rel=0.005)
        assert res.k_a[0] == pytest.approx(3.8e-3, rel=0.005)

    @pytest.mark.parametrize(
        "grid,tau",
        [(KAUSAITE2007.grid, 1100.0), (LAHIRI1999.grid, 300.0)],
        ids=["kausaite-grid", "lahiri-grid"],
    )
    def test_exact_recovery_on_rate_grid(self, grid, tau):
        # rates resolvable by the sampling interval recover exactly; decays
        # faster than ~3/step complete between samples and are not identifiable
        t = grid.times()
        k_s_grid = np.geomspace(1e-4, 1.0, 7)
        k_d_grid = np.geomspace(1e-4, 3.0 / grid.step, 6)
        for k_s in k_s_grid:
            for k_d in k_d_grid:
                shape = SensorgramShape(
                    baseline=0.31, amplitude_inf=0.27, k_s=float(k_s), k_d=float(k_d), tau_s=tau
                )
                y = ideal_sensorgram(t, shape)
                res = fit_sensorgrams(t, y[None], tau_s=tau, L0=1.0)
                assert res.k_s[0] == pytest.approx(k_s, rel=1e-6), (k_s, k_d)
                assert res.k_d[0] == pytest.approx(k_d, rel=1e-6), (k_s, k_d)

    def test_affine_equivariance(self, kausaite2007):
        trace, y = kausaite2007
        t = trace.t
        base = fit_sensorgrams(t, y[None], tau_s=1100.0, L0=274e-9)
        scaled = fit_sensorgrams(t, -40.0 + 25.0 * y[None], tau_s=1100.0, L0=274e-9)
        assert scaled.k_s[0] == pytest.approx(base.k_s[0], rel=1e-8)
        assert scaled.k_d[0] == pytest.approx(base.k_d[0], rel=1e-8)

    def test_result_invariants(self, kausaite2007):
        trace, y = kausaite2007
        t = trace.t
        res = fit_sensorgrams(t, y[None], tau_s=1100.0, L0=274e-9)
        assert res.iterations[0] <= 2 * MAX_ITERS

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_rate_is_not_converged(self, kausaite2007):
        # both segment solves converge, but k_a = (k_s - k_d)/L0 overflows to inf
        trace, y = kausaite2007
        t = trace.t
        res = fit_sensorgrams(t, y[None], tau_s=1100.0, L0=5e-324)
        assert np.isinf(res.k_a[0]) and np.isfinite([res.k_s[0], res.k_d[0]]).all()
        assert not res.converged[0]

    def test_rejects_empty_block(self):
        t = np.linspace(0.0, 2200.0, 221)
        with pytest.raises(ValueError, match="at least one sensorgram"):
            fit_sensorgrams(t, np.empty((0, t.size)), tau_s=1100.0, L0=1.0)

    def test_requires_both_phases(self):
        t = np.linspace(0.0, 900.0, 90)
        with pytest.raises(ValueError, match="phases"):
            fit_sensorgrams(t, np.ones_like(t)[None], tau_s=1000.0, L0=1.0)

    def test_split_is_the_first_sample_at_or_after_tau(self):
        t = np.arange(0.0, 100.0, 10.0)
        assert split_at_tau(t, 30.0) == 3 and split_at_tau(t, 30.5) == 4
        # 2 samples before tau and 3 from it are the fewest each segment fits
        assert split_at_tau(t, 20.0) == 2 and split_at_tau(t, 70.0) == 7
        for tau in (10.0, 70.5, 1000.0):
            with pytest.raises(ValueError, match="^samples must span both kinetic phases$"):
                split_at_tau(t, tau)


@pytest.fixture
def noisy_block(request):
    """``rows`` seeded noisy sensorgrams of one probe state, as run_ensembles draws them."""

    def block(case, kind, n_mean, nu, rows, seed=7):
        trace, T_L = request.getfixturevalue(case.name)
        plan = SimulationPlan(
            nu=nu, m=rows, state=ProbeState(kind=kind, n_mean=n_mean),
            scenario=SensingScenario(mode=ScenarioMode.STANDARD),
        )
        Y = synthesize_noisy_sensorgrams(T_L, [plan], seed, sets=[0])
        return trace.t, Y, case.kinetics.tau_s, case.kinetics.L0

    return block


# low-SNR blocks in which some fits fail: the README sweep's TMSV point at
# nu=100, and lahiri1999 at a tenth of its default shot budget
LOW_SNR_BLOCKS = {
    "kausaite-tmsv-nu100": (KAUSAITE2007, ProbeKind.TMSV, 10.0, 100),
    "lahiri-tmc-nu1e4": (LAHIRI1999, ProbeKind.TMC, 10.0, 10_000),
}
# lahiri1999 at a thousandth of its shot budget, where most fits fail: here the
# last bits by which the closed-form start differs from np.polyfit decide some fits
HOPELESS_BLOCK = (LAHIRI1999, ProbeKind.TMC, 10.0, 100)


def polyfit_start(t_rel, Y):
    """The reference's per-row np.polyfit dissociation start, as a (B, 3) block."""
    starts = [scalar_reference._dissociation_warm_start(t_rel, y) for y in Y]
    return np.array([[b0, a0, np.log(k0)] for b0, a0, k0 in starts])


def scalar_fits(t, Y, tau, L0):
    """converged flags (B,) and (k_a, k_s, k_d) rows (B, 3) of the scalar reference loop."""
    refs = [scalar_reference.fit_sensorgram(t, y, tau, L0) for y in Y]
    return np.array([r.converged for r in refs]), np.array([[r.k_a, r.k_s, r.k_d] for r in refs])


def rates(fits):
    return np.column_stack([fits.k_a, fits.k_s, fits.k_d])


class TestBlockFit:
    @pytest.mark.parametrize("block", LOW_SNR_BLOCKS.values(), ids=LOW_SNR_BLOCKS.keys())
    def test_matches_scalar_loop(self, noisy_block, block):
        # the batched engine against the per-sensorgram loop it replaced
        t, Y, tau, L0 = noisy_block(*block, rows=150)
        fits = fit_sensorgrams(t, Y, tau, L0)
        assert not fits.converged.all()  # the block does reach the failing regime
        converged, expected = scalar_fits(t, Y, tau, L0)
        assert np.array_equal(fits.converged, converged)
        assert np.allclose(rates(fits), expected, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize(
        "block", [*LOW_SNR_BLOCKS.values(), HOPELESS_BLOCK], ids=[*LOW_SNR_BLOCKS, "lahiri-tmc-nu100"]
    )
    def test_matches_scalar_loop_from_the_same_start(self, noisy_block, block, monkeypatch):
        # given the reference's own warm start, the block solver retraces the
        # scalar loop on every row bit for bit, failed fits included
        monkeypatch.setattr(fit_module, "_dissociation_warm_start", polyfit_start)
        t, Y, tau, L0 = noisy_block(*block, rows=150)
        fits = fit_sensorgrams(t, Y, tau, L0)
        converged, expected = scalar_fits(t, Y, tau, L0)
        assert np.array_equal(fits.converged, converged)
        assert np.array_equal(rates(fits), expected)

    def test_closed_form_start_deviation_is_bounded(self, noisy_block):
        # Known deviation: where most fits fail, the closed-form start (within
        # 1e-12 of np.polyfit's) sends a few rows to another flag or minimum;
        # 2 rows on this block, at most 4 on 20 lahiri blocks of 200 rows at
        # nu 100 and 1000.
        t, Y, tau, L0 = noisy_block(*HOPELESS_BLOCK, rows=200)
        t_rel = t[t >= tau] - tau
        closed = fit_module._dissociation_warm_start(t_rel, Y[:, t >= tau])
        assert np.allclose(closed, polyfit_start(t_rel, Y[:, t >= tau]), rtol=1e-12, atol=0.0)

        fits = fit_sensorgrams(t, Y, tau, L0)
        converged, expected = scalar_fits(t, Y, tau, L0)
        assert converged.mean() < 0.5  # the hopeless regime is reached
        same = np.isclose(rates(fits), expected, rtol=1e-6, atol=0.0).all(axis=1)
        differ = (fits.converged != converged) | (converged & ~same)
        assert 0 < differ.sum() <= 0.02 * len(Y)

    @pytest.mark.parametrize("block", LOW_SNR_BLOCKS.values(), ids=LOW_SNR_BLOCKS.keys())
    def test_rows_independent_of_block_composition(self, noisy_block, block):
        t, Y, tau, L0 = noisy_block(*block, rows=60)
        whole = fit_sensorgrams(t, Y, tau, L0)
        alone = [fit_sensorgrams(t, Y[i : i + 1], tau, L0) for i in range(len(Y))]
        split = [fit_sensorgrams(t, Y[:23], tau, L0), fit_sensorgrams(t, Y[23:], tau, L0)]
        for field in dataclasses.fields(whole):
            expected = getattr(whole, field.name)
            assert np.array_equal(np.concatenate([getattr(f, field.name) for f in alone]), expected)
            assert np.array_equal(np.concatenate([getattr(f, field.name) for f in split]), expected)

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow import experiments, multistep
from proxflow.multistep import (
    _BDF_TABLE,
    CompositeObjective,
    DegenerateParameterError,
    DivergenceError,
    MultistepConfig,
    Trace,
    UnsupportedOrderError,
    approx_prox,
    bdf_coefficients,
    delta_constant,
    epsilon_stationarity,
    gamma_bound,
    iterate,
    mix,
    quadratic_objective,
    run,
    theorem_bounds,
)
from proxflow.numerics import TOL, ValidationError, seeded_rng
from proxflow.prox_ops import QuadraticProblem, prox_l1, prox_lsp, prox_quadratic

from conftest import random_spd, random_symmetric_with_spectrum, run_states


class TestBdfCoefficients:
    def test_order_one(self):
        xi, xi_bar = bdf_coefficients(1)
        assert xi == [1.0] and xi_bar == 1.0

    def test_order_two(self):
        xi, xi_bar = bdf_coefficients(2)
        assert xi == [-1.0 / 3.0, 4.0 / 3.0] and xi_bar == 2.0 / 3.0

    def test_order_four(self):
        xi, xi_bar = bdf_coefficients(4)
        assert xi == [-3.0 / 25.0, 16.0 / 25.0, -36.0 / 25.0, 48.0 / 25.0]
        assert xi_bar == 12.0 / 25.0

    def test_exact_rows_sum_to_one(self):
        for tau in (1, 2, 3, 4):
            xi, _ = bdf_coefficients(tau, exact=True)
            assert sum(xi) == Fraction(1)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            bdf_coefficients(5)


class TestMix:
    def test_constant_history(self, rng):
        x = rng.standard_normal(4)
        h = [x] * 3
        xi = bdf_coefficients(3)[0]
        assert np.allclose(mix(h, xi), x)

    def test_two_step_scalars(self):
        assert mix([np.array([0.0]), np.array([3.0])], (-1 / 3, 4 / 3))[0] == (
            pytest.approx(4.0)
        )

    def test_single_step_identity(self, rng):
        x = rng.standard_normal(5)
        assert np.array_equal(mix([x], (1.0,)), x)

    def test_matches_naive_loop(self, rng):
        entries = [rng.standard_normal(6) for _ in range(4)]
        xi = bdf_coefficients(4)[0]
        naive = sum(w * e for w, e in zip(xi, entries))
        assert np.allclose(mix(entries, xi), naive)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            mix([np.zeros(2)], (0.5, 0.5))

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, seed):
        r = seeded_rng(seed)
        tau = int(r.integers(1, 5))
        xi = bdf_coefficients(tau)[0]
        entries = [r.standard_normal(3) for _ in range(tau)]
        shift = r.standard_normal(3)
        lhs = mix([e + shift for e in entries], xi)
        rhs = mix(entries, xi) + shift
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestApproxProx:
    def setup_method(self):
        self.problem = QuadraticProblem(np.diag([1.0, 2.0]))
        self.objective = quadratic_objective(self.problem)

    def test_zero_steps_returns_start(self, rng):
        start = rng.standard_normal(2)
        out = approx_prox(self.objective, rng.standard_normal(2), start, 1.0, 0, 0.3)
        assert np.array_equal(out, start)

    def test_converges_to_exact_prox(self):
        x_mix = np.array([1.0, 1.0])
        exact = prox_quadratic(self.problem, x_mix, 1.0)
        out = approx_prox(self.objective, x_mix, x_mix, 1.0, 200, 1.0 / 3.0)
        assert np.linalg.norm(out - exact) <= 1e-8

    def test_contraction_matches_bound(self):
        x_mix = np.array([1.0, 1.0])
        exact = prox_quadratic(self.problem, x_mix, 1.0)
        out = approx_prox(self.objective, x_mix, x_mix, 1.0, 4, 1.0 / 3.0)
        ratio = np.linalg.norm(out - exact) / np.linalg.norm(x_mix - exact)
        assert ratio <= gamma_bound(1.0, 2.0, 4) + 1e-12

    def test_divergence_reports_step(self):
        with pytest.raises(DivergenceError) as err:
            approx_prox(
                self.objective, np.ones(2), np.ones(2) * 1e300, 1.0, 5, 1e6
            )
        assert err.value.step is not None

    def test_divergence_step_is_the_first_non_finite_iterate(self):
        # each step multiplies the start by about -3e6: 1e280 overflows at step 5
        with pytest.raises(DivergenceError, match="diverged at step 5$") as err:
            approx_prox(self.objective, np.ones(2), np.full(2, 1e280), 1.0, 10, 1e6)
        assert err.value.step == 5

    def test_lasso_blow_up_is_divergence(self):
        # the l1 prox of an infinite entry is infinite, so the inner loop
        # reports it at the step it happens
        from proxflow.experiments import gen_sensing, lasso_objective

        objective = lasso_objective(gen_sensing(10, 20, "uniform", 3), 0.1)
        with pytest.raises(DivergenceError) as err:
            approx_prox(objective, np.ones(20), np.full(20, 1e280), 1.0, 10, 1e6)
        assert err.value.step == 5

    def test_lsp_blow_up_is_divergence(self):
        # the log-sum prox maps an entry whose square overflows to its root,
        # not to 0, so the blow-up is reported at the same step as the lasso's
        objective = experiments.lsp_objective(
            experiments.gen_sensing(10, 20, "uniform", 3), 1.0
        )
        with pytest.raises(DivergenceError) as err:
            approx_prox(objective, np.ones(20), np.full(20, 1e280), 1.0, 10, 1e6)
        assert err.value.step == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_start_and_mixed_point(self, bad):
        point = np.array([1.0, bad])
        with pytest.raises(ValidationError, match="start"):
            approx_prox(self.objective, np.ones(2), point, 1.0, 3, 0.3)
        with pytest.raises(ValidationError, match="x_mix"):
            approx_prox(self.objective, point, np.ones(2), 1.0, 3, 0.3)


class TestGammaBound:
    def test_no_contraction_at_zero_steps(self):
        assert gamma_bound(1.0, 2.0, 0) == 1.0

    def test_known_value(self):
        got = gamma_bound(1.0, 2.0, 4)
        assert got == pytest.approx((2.0 / 3.0) ** 4)
        # logarithm identity cross-check
        assert math.log(got) == pytest.approx(4 * math.log(1 - 1 / 3), abs=1e-12)

    def test_monotone_decreasing_in_m(self):
        vals = [gamma_bound(0.7, 3.0, m) for m in range(0, 40, 5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01


class TestRun:
    def test_zero_iterations(self, rng):
        objective = quadratic_objective(QuadraticProblem(np.eye(3)))
        x0 = rng.standard_normal(3)
        trace = run(objective, MultistepConfig.bdf(1, 1.0), x0, 0)
        assert trace.ks == [0]
        assert np.array_equal(trace.state[0], x0)

    def test_exact_ppm_halves_error(self, rng):
        # mu = L = 1 so every eigendirection contracts by exactly 1/2
        problem = QuadraticProblem(np.eye(4), rng.standard_normal(4))
        objective = quadratic_objective(problem)
        cfg = MultistepConfig(xi=(1.0,), beta=1.0, inner_m=None)
        trace = run(objective, cfg, rng.standard_normal(4), 30)
        errs = np.array(trace.values("iterate_error"))
        ratios = errs[1:] / errs[:-1]
        assert np.abs(ratios - 0.5).max() <= 1e-6

    def test_bdf2_theorem_bound_on_trace(self):
        rng = seeded_rng(31)
        q = random_symmetric_with_spectrum(rng, [1.0, 1.7, 2.4, 3.0])
        objective = quadratic_objective(QuadraticProblem(q))
        eta = 5.0 / 3.0
        beta = 1.0  # >= (eta - 1) / mu = 2/3
        cfg = MultistepConfig.bdf(2, beta, inner_m=None, warmup="repeat")
        trace = run(objective, cfg, rng.standard_normal(4), 40)
        errs = np.array(trace.values("iterate_error"))
        base = errs[:2].max()
        factor = eta / (1.0 + beta * 1.0)
        for k in range(2, len(errs)):
            assert errs[k] <= factor ** (k // 2) * base * (1 + 1e-9)

    def test_stop_on_objective_gap(self, rng):
        problem = QuadraticProblem(np.eye(3))
        objective = quadratic_objective(problem)
        cfg = MultistepConfig(xi=(1.0,), beta=1.0, inner_m=None)
        # F* = 0, so the gap is the objective
        trace = run(
            objective,
            cfg,
            rng.standard_normal(3),
            500,
            stop=lambda trace: trace.metrics["objective"][-1][1] <= 1e-10,
        )
        assert trace.ks[-1] < 500
        assert trace.values("objective")[-1] <= 1e-10

    def test_stop_is_checked_on_the_start(self):
        # a start that already meets the stop rule takes no step
        objective = quadratic_objective(QuadraticProblem(np.eye(3)))
        cfg = MultistepConfig(xi=(1.0,), beta=1.0, inner_m=None)
        seen = []

        def stop(trace):
            seen.append(trace.ks[-1])
            return True

        trace = run(objective, cfg, np.zeros(3), 500, stop=stop)
        assert trace.ks == [0] and seen == [0]
        assert trace.inner_steps == [0] and trace.values("objective") == [0.0]

    def test_divergence_carries_partial_trace(self, rng):
        objective = quadratic_objective(QuadraticProblem(np.eye(2)))
        cfg = MultistepConfig(xi=(1.0,), beta=1.0, inner_m=3, inner_alpha=1e9)
        with pytest.raises(DivergenceError) as err:
            run(objective, cfg, rng.standard_normal(2) * 10, 50)
        assert err.value.trace is not None
        assert err.value.trace.diverged

    def test_diverged_is_read_off_diverged_at(self):
        trace = Trace(1)
        assert not trace.diverged
        trace.diverged_at = 3
        assert trace.diverged
        with pytest.raises(AttributeError):
            trace.diverged = False

    def test_warmup_policies_agree_on_constant_start(self):
        problem = QuadraticProblem(np.eye(3))
        objective = quadratic_objective(problem)
        x_star = np.zeros(3)
        for warmup in ("ramp", "repeat"):
            cfg = MultistepConfig.bdf(3, 1.0, inner_m=None, warmup=warmup)
            _, states = run_states(objective, cfg, x_star, 8)
            assert len(states) == 9
            for it in states:
                assert np.linalg.norm(it - x_star) <= 1e-12

    def test_record_count_is_iterations_plus_one(self, rng):
        objective = quadratic_objective(QuadraticProblem(np.eye(2)))
        trace = run(objective, MultistepConfig.bdf(2, 1.0), rng.standard_normal(2), 17)
        assert len(trace.ks) == 18
        assert len(trace.metrics["objective"]) == 18


class TestExactRateProperties:
    def test_nonnegative_weights_fifty_quadratics(self):
        rng = seeded_rng(99)
        xi = (0.3, 0.7)
        beta = 1.0
        for _ in range(50):
            n = int(rng.integers(2, 6))
            mu = float(rng.uniform(0.5, 2.0))
            lmax = mu + float(rng.uniform(0.0, 3.0))
            eigs = np.concatenate(
                [[mu, lmax], rng.uniform(mu, lmax, max(n - 2, 0))]
            )[:n]
            q = random_symmetric_with_spectrum(rng, eigs)
            objective = quadratic_objective(QuadraticProblem(q))
            cfg = MultistepConfig(xi=xi, beta=beta, inner_m=None, warmup="repeat")
            trace = run(objective, cfg, rng.standard_normal(n), 20)
            errs = np.array(trace.values("iterate_error"))
            base = errs[:2].max()
            factor = 1.0 / (1.0 + beta * mu)
            for k in range(2, len(errs)):
                assert errs[k] <= factor ** (k // 2) * base * (1 + 1e-9)

    def test_general_weights_bdf2_bdf3(self):
        rng = seeded_rng(100)
        for tau in (2, 3):
            xi = tuple(bdf_coefficients(tau)[0])
            eta = sum(abs(v) for v in xi)
            for _ in range(25):
                n = int(rng.integers(2, 6))
                mu = float(rng.uniform(0.5, 2.0))
                eigs = np.sort(np.concatenate([[mu], rng.uniform(mu, mu + 3, n - 1)]))
                q = random_symmetric_with_spectrum(rng, eigs)
                objective = quadratic_objective(QuadraticProblem(q))
                beta = (eta - 1.0) / mu * float(rng.uniform(1.0, 2.0))
                cfg = MultistepConfig(xi=xi, beta=beta, inner_m=None, warmup="repeat")
                trace = run(objective, cfg, rng.standard_normal(n), 18)
                errs = np.array(trace.values("iterate_error"))
                base = errs[:tau].max()
                factor = eta / (1.0 + beta * mu)
                for k in range(tau, len(errs)):
                    assert errs[k] <= factor ** (k // tau) * base * (1 + 1e-9)


class TestEpsilonStationarity:
    def test_zero_at_minimizer(self, rng):
        q = random_spd(rng, 4)
        c = rng.standard_normal(4)
        problem = QuadraticProblem(q, c)
        objective = quadratic_objective(problem)
        assert epsilon_stationarity(objective, objective.minimizer, 1.0) <= 1e-8

    def test_quadratic_identity(self, rng):
        q = random_spd(rng, 5)
        objective = quadratic_objective(QuadraticProblem(q))
        x = rng.standard_normal(5)
        beta = 0.8
        want = np.linalg.norm(np.linalg.solve(np.eye(5) + beta * q, q @ x))
        assert epsilon_stationarity(objective, x, beta) == pytest.approx(
            want, rel=1e-9
        )

    def test_scaling_linearity(self, rng):
        q = random_spd(rng, 4)
        objective = quadratic_objective(QuadraticProblem(q))
        x = rng.standard_normal(4)
        a = epsilon_stationarity(objective, x, 1.0)
        b = epsilon_stationarity(objective, 2 * x, 1.0)
        assert b == pytest.approx(2 * a, rel=1e-9)

    def test_high_budget_path_without_exact_prox(self, rng):
        q = random_spd(rng, 4)
        problem = QuadraticProblem(q)
        objective = quadratic_objective(problem)
        inexact = CompositeObjective(
            value=objective.value,
            grad_f=objective.grad_f,
            prox_h=objective.prox_h,
            smoothness=objective.smoothness,
            convexity=objective.convexity,
        )
        x = rng.standard_normal(4)
        assert epsilon_stationarity(inexact, x, 0.9) == pytest.approx(
            epsilon_stationarity(objective, x, 0.9), abs=1e-8
        )


class TestDeltaConstant:
    def test_single_step_is_zero(self):
        assert delta_constant((1.0,)) == 0

    def test_bdf2_exact(self):
        xi, _ = bdf_coefficients(2, exact=True)
        assert delta_constant(xi) == Fraction(1, 9)

    def test_bdf3_exact(self):
        xi, _ = bdf_coefficients(3, exact=True)
        assert delta_constant(xi) == Fraction(194, 121)


class TestTheoremBounds:
    def test_single_step_reduction(self):
        cfg = MultistepConfig(xi=(1.0,), beta=2.0, inner_m=4)
        tb = theorem_bounds(cfg, mu=1.0, smoothness=3.0, gamma=0.0)
        assert tb.eta == 1.0
        assert tb.beta_min_strongly_convex == 0.0
        assert tb.gamma_max == pytest.approx(2.0 / 4.0)

    def test_bdf2_predicted_factor(self):
        cfg = MultistepConfig.bdf(2, 1.0, inner_m=None)
        tb = theorem_bounds(cfg, mu=1.0, smoothness=2.0, gamma=0.0)
        assert tb.eta == pytest.approx(5.0 / 3.0)
        assert tb.rate_per_step**2 == pytest.approx(5.0 / 6.0)

    def test_bdf2_guarantee_boundary(self):
        cfg = MultistepConfig.bdf(2, 2.0 / 3.0, inner_m=None)
        tb = theorem_bounds(cfg, mu=1.0, smoothness=2.0, gamma=0.0)
        assert tb.rate_per_step**2 == pytest.approx(1.0)

    def test_degenerate_mu(self):
        cfg = MultistepConfig.bdf(2, 1.0)
        with pytest.raises(DegenerateParameterError):
            theorem_bounds(cfg, mu=0.0, smoothness=1.0, gamma=0.0)


def lsp_toy_objective(theta):
    """1-D log-sum penalty split into a smooth part and |x|/theta."""

    def value(x):
        return float(np.log1p(np.abs(x) / theta).sum())

    def grad_f(x):
        return np.sign(x) * (1.0 / (theta + np.abs(x)) - 1.0 / theta)

    return CompositeObjective(
        value=value,
        grad_f=grad_f,
        prox_h=lambda v, t: prox_l1(v, t / theta),
        smoothness=1.0 / theta**2,
        convexity=-1.0 / theta**2,
        exact_prox=lambda x, beta: prox_lsp(x, theta, beta),
    )


class TestWeaklyConvexBound:
    def test_lsp_toy_stationarity_decay(self):
        theta = 1.0
        objective = lsp_toy_objective(theta)
        mu = -1.0 / theta**2
        delta = 1.0 / 9.0
        beta = 0.5 * (1.0 - delta) / (-mu)  # below the step-size cap
        cfg = MultistepConfig.bdf(2, beta, inner_m=None, warmup="repeat")
        x0 = np.array([2.5])
        trace, states = run_states(objective, cfg, x0, 60, stat_every=1)
        eps = dict(trace.metrics["epsilon_beta"])
        f_tau = trace.values("objective")[2]
        f_star = 0.0
        warm = sum(
            np.linalg.norm(states[s + 1] - states[s]) ** 2
            for s in range(2)
        )
        for k in range(3, 61):
            best = min(eps[s] for s in range(k + 1))
            bound = (1.0 / (1.0 - mu * beta)) * math.sqrt(
                2.0 * (f_tau - f_star) / (k * beta) + delta * warm / (k * beta**2)
            )
            assert best <= bound * (1 + 1e-9)


class TestInexactRate:
    def test_gamma_contractive_bound_holds(self):
        rng = seeded_rng(500)
        xi = tuple(bdf_coefficients(2)[0])
        eta = sum(abs(v) for v in xi)
        beta, mu, lmax = 4.0, 1.0, 2.0
        cfg_probe = MultistepConfig(xi=xi, beta=beta, inner_m=None)
        gamma_max = theorem_bounds(cfg_probe, mu, lmax, 0.0).gamma_max
        m = 8
        gamma = gamma_bound(beta, lmax, m)
        assert gamma < gamma_max
        factor = gamma + (1 + gamma) * eta / (1 + beta * mu)
        for _ in range(20):
            eigs = np.sort(np.concatenate([[mu, lmax], rng.uniform(mu, lmax, 2)]))
            q = random_symmetric_with_spectrum(rng, eigs)
            objective = quadratic_objective(QuadraticProblem(q))
            cfg = MultistepConfig(
                xi=xi,
                beta=beta,
                inner_m=m,
                warmup="repeat",
                inner_start="mixed",
            )
            trace = run(objective, cfg, rng.standard_normal(4), 24)
            errs = np.array(trace.values("iterate_error"))
            base = errs[:2].max()
            for k in range(1, len(errs)):
                assert errs[k] <= factor ** math.ceil(k / 2) * base * (1 + 1e-9)


class TestConfigValidation:
    def test_xi_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            MultistepConfig(xi=(0.5, 0.6), beta=1.0)

    @pytest.mark.parametrize("tau", [0, 17])
    def test_order_outside_1_to_16_is_rejected(self, tau):
        with pytest.raises(ValidationError, match="weights"):
            MultistepConfig(xi=(1.0 / max(tau, 1),) * tau, beta=1.0)

    def test_tau_is_the_number_of_weights(self):
        cfg = MultistepConfig(xi=(0.25,) * 4, beta=1.0)
        assert cfg.tau == 4
        with pytest.raises(AttributeError):
            cfg.tau = 3


def former_iterate(step, x0, xi, iterations, record, warmup="ramp", stop=None):
    """The engine loop as it was before fixed points were reused: it calls
    ``step`` on every outer step and records whatever ``step`` returned.
    ``stop`` is checked after every record, the start's included."""
    tau = len(xi)
    trace = Trace(tau, ks=[0], walltime_s=[0.0], state=x0)
    states = [x0] * tau if warmup == "repeat" else [x0]
    k = 0
    try:
        record(trace, 0, x0)
        if stop is not None and stop(trace):
            return trace
        for k in range(1, iterations + 1):
            weights, mixed_from = xi, states
            if len(states) < tau:
                if len(states) in _BDF_TABLE:
                    weights = bdf_coefficients(len(states))[0]
                else:
                    mixed_from = [x0] * (tau - len(states)) + states
            mixed = tuple(mix(blocks, weights) for blocks in zip(*mixed_from))
            x_next = step(mixed, states[-1])
            for block in x_next:
                norm = float(np.linalg.norm(block))
                if not math.isfinite(norm) or norm > TOL.divergence_norm:
                    raise DivergenceError(f"iterate norm {norm:.3e} at outer step {k}")
            trace.ks.append(k)
            trace.walltime_s.append(0.0)
            trace.state = x_next
            record(trace, k, x_next)
            states.append(x_next)
            if len(states) > tau:
                states.pop(0)
            if stop is not None and stop(trace):
                break
    except DivergenceError as err:
        trace.diverged_at = k
        err.trace = trace
        raise
    return trace


def _use_former_engine(monkeypatch):
    monkeypatch.setattr(multistep, "iterate", former_iterate)
    monkeypatch.setattr(experiments, "iterate", former_iterate)


def _assert_same_run(new, old):
    """Everything but walltime_s and inner_steps, bit for bit."""
    assert new.keys() == old.keys()
    for tau in new:
        a, b = new[tau], old[tau]
        assert a.ks == b.ks
        assert a.metrics.keys() == b.metrics.keys()
        for name in a.metrics:
            got = np.array(a.metrics[name])
            assert got.tobytes() == np.array(b.metrics[name]).tobytes(), (tau, name)
        assert len(a.state) == len(b.state)
        for x, y in zip(a.state, b.state):
            assert x.tobytes() == y.tobytes()
        assert (a.diverged, a.diverged_at) == (b.diverged, b.diverged_at)
        assert b.fixed_at is None


def _counting(step):
    calls = []

    def counted(mixed, last):
        calls.append(last)
        return step(mixed, last)

    return counted, calls


def _record_sum(trace, k, state):
    trace.add("sum", k, float(state[0].sum()))


class TestFixedPoint:
    """The engine accepts a fixed point without recomputing it."""

    def test_step_is_called_once_from_the_full_fixed_window(self):
        # the last state climbs by 1 to 5 and stays there
        step, calls = _counting(lambda mixed, last: (np.minimum(last[0] + 1.0, 5.0),))
        trace = iterate(step, (np.zeros(2),), bdf_coefficients(3)[0], 20, _record_sum)
        # steps 1-5 climb; 6 and 7 fill the window with the state of step 5,
        # and step 8 is the one call from that full window
        assert len(calls) == 8
        assert trace.fixed_at == 9
        assert trace.ks == list(range(21))
        assert trace.values("sum") == [0.0, 2.0, 4.0, 6.0, 8.0] + [10.0] * 16
        assert trace.state[0].tobytes() == np.full(2, 5.0).tobytes()
        assert len(trace.walltime_s) == 21

    @pytest.mark.parametrize("tau", [1, 2, 3, 4, 6])
    def test_ramp_does_not_fix_a_window_that_is_not_full(self, tau):
        # the identity step: ramp calls it with the growing BDF rows until
        # tau states exist, then once from the full window
        step, calls = _counting(lambda mixed, last: (last[0].copy(),))
        xi = bdf_coefficients(tau)[0] if tau <= 4 else [1.0 / tau] * tau
        trace = iterate(step, (np.ones(3),), xi, 10, _record_sum)
        assert len(calls) == tau
        assert trace.fixed_at == tau + 1

    def test_repeat_warmup_starts_with_a_full_window(self):
        step, calls = _counting(lambda mixed, last: (last[0].copy(),))
        trace = iterate(
            step, (np.ones(3),), bdf_coefficients(3)[0], 10, _record_sum, warmup="repeat"
        )
        assert len(calls) == 1
        assert trace.fixed_at == 2

    def test_fixed_point_reached_on_the_last_step_is_not_reported(self):
        step, calls = _counting(lambda mixed, last: (last[0].copy(),))
        trace = iterate(step, (np.ones(3),), (1.0,), 1, _record_sum)
        assert len(calls) == 1
        assert trace.fixed_at is None

    def test_signed_zero_is_never_fixed(self):
        # 0.0 and -0.0 compare equal but are different bytes
        step, calls = _counting(lambda mixed, last: (-last[0],))
        trace = iterate(step, (np.zeros(2),), (1.0,), 9, _record_sum)
        assert len(calls) == 9
        assert trace.fixed_at is None
        assert np.signbit(trace.state[0]).all()

    @pytest.mark.parametrize("bad_at", [1, 4])
    def test_nan_step_diverges_as_before(self, bad_at):
        # NaN bytes equal themselves; the divergence check still comes first
        def step(mixed, last):
            if len(trace_ks) >= bad_at:  # records 0..k-1 so far
                return (np.full(2, np.nan),)
            return (last[0] * 0.5,)

        def record(trace, k, state):
            trace_ks.append(k)
            _record_sum(trace, k, state)

        results = []
        for engine in (iterate, former_iterate):
            trace_ks = []
            with pytest.raises(DivergenceError) as err:
                engine(step, (np.ones(2),), (1.0,), 10, record)
            results.append(err.value.trace)
        new, old = results
        assert (new.diverged, new.diverged_at) == (True, bad_at)
        assert (new.ks, new.metrics) == (old.ks, old.metrics)
        assert (old.diverged, old.diverged_at) == (True, bad_at)

    def test_nan_start_diverges_at_the_first_step(self):
        trace_ks = []
        with pytest.raises(DivergenceError) as err:
            iterate(
                lambda mixed, last: (last[0].copy(),),
                (np.full(2, np.nan),), (1.0,), 10,
                lambda trace, k, state: trace_ks.append(k),
            )
        assert err.value.trace.diverged_at == 1
        assert trace_ks == [0]


class TestFixedPointMatchesFormerEngine:
    """Reusing fixed points gives the same traces as recomputing them."""

    @staticmethod
    def _sensing(kind, seed):
        problem = experiments.gen_sensing(
            *((50, 100) if kind == "l1" else (20, 50)), "uniform", seed
        )
        if kind == "l1":
            f_star = experiments.reference_optimum(problem, 0.01, 1.0)
            return lambda: experiments.run_l1(
                problem, 0.01, (1, 2, 3), 1.0, 4, 2000, f_star=f_star
            ).traces
        return lambda: experiments.run_lsp(problem, 5.0, (1, 2, 3), 1.0, 4, 2000)

    @pytest.mark.parametrize(
        "kind, seed, fixed",
        [
            ("l1", 0, {1: 1131, 2: 764, 3: 623}),
            ("lsp", 0, {1: 251, 2: 159, 3: 142}),
            ("lsp", 1, {1: 3, 2: 4, 3: 5}),
        ],
    )
    def test_sensing_runs(self, kind, seed, fixed, monkeypatch):
        # paper defaults; every run here reaches a fixed point
        runs = self._sensing(kind, seed)
        new = runs()
        assert {tau: t.fixed_at for tau, t in new.items()} == fixed
        for tau, t in new.items():
            # inner steps are counted only where the step map ran
            assert sum(t.inner_steps) == 4 * (t.fixed_at - 1)
        _use_former_engine(monkeypatch)
        _assert_same_run(new, runs())

    def test_altproj_and_matfac(self, monkeypatch):
        pair = experiments.gen_subspaces(500, 400, 0.5, 0)
        problem = experiments.gen_matfac(100, 10, 0.1, 0)

        def runs():
            return (
                experiments.run_altproj(pair, (1, 2, 3), 300),
                experiments.run_matfac(problem, (1, 2, 3), 300),
            )

        new = runs()
        _use_former_engine(monkeypatch)
        for a, b in zip(new, runs()):
            _assert_same_run(a, b)

    def test_stationary_lsp_computes_each_metric_once(self, monkeypatch):
        # seed 1 starts at a stationary point. The first step returns it with
        # some zeros negated, a new state; the second returns that state's bytes
        calls = []
        counted = multistep.epsilon_stationarity

        def counting(*args, **kwargs):
            calls.append(args[1])
            return counted(*args, **kwargs)

        monkeypatch.setattr(multistep, "epsilon_stationarity", counting)
        traces = self._sensing("lsp", 1)()
        # once at the start and once at the fixed point, per tau
        assert len(calls) == 6
        for t in traces.values():
            assert len(t.metrics["epsilon_beta"]) == 81
            assert t.values("epsilon_beta") == [0.0] * 81
        # from step 1 on, every iterate is one state object
        problem = experiments.gen_sensing(20, 50, "uniform", 1)
        objective = experiments.lsp_objective(problem, 5.0)
        for tau in (1, 2, 3):
            cfg = MultistepConfig.bdf(tau, 1.0, inner_m=4)
            _, states = run_states(objective, cfg, np.zeros(50), 2000)
            assert all(x is states[1] for x in states[1:])

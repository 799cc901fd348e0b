import csv
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from proxflow import experiments
from proxflow.altproj_accel import prescribed_angle_pair, projection_spectrum
from proxflow.experiments import (
    AxesSpec,
    SensingProblem,
    altproj_trace,
    emit_csv,
    emit_svg,
    gen_matfac,
    gen_sensing,
    gen_subspaces,
    lasso_objective,
    lsp_objective,
    matfac_trace,
    run_altproj,
    run_l1,
    run_lsp,
    run_matfac,
)
from proxflow.multistep import MultistepConfig, approx_prox, epsilon_stationarity, mix
from proxflow.numerics import RankError, ValidationError, orthonormal_basis, seeded_rng

from conftest import run_states


class TestGenSensing:
    def test_deterministic(self):
        a = gen_sensing(10, 25, "uniform", 5)
        b = gen_sensing(10, 25, "uniform", 5)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.x_true, b.x_true)

    def test_reference_dimensions(self):
        assert gen_sensing(50, 100, "uniform", 0).a.shape == (50, 100)
        assert gen_sensing(20, 50, "inverse_r", 0).a.shape == (20, 50)

    def test_exp_decay_ratios(self):
        p = gen_sensing(12, 30, "exp_decay", 2)
        sv = np.linalg.svd(p.a, compute_uv=False)
        ratios = sv / sv[0]
        want = np.exp(-np.arange(12, dtype=float))
        assert np.abs(ratios - want).max() <= 1e-8

    def test_singular_values_match_declared(self):
        for kind in ("uniform", "inverse_r"):
            p = gen_sensing(15, 40, kind, 7)
            sv = np.sort(np.linalg.svd(p.a, compute_uv=False))[::-1]
            want = np.sort(p.singular_values)[::-1]
            assert np.abs(sv - want).max() <= 1e-8

    def test_sparsity_default_and_consistency(self):
        p = gen_sensing(50, 100, "uniform", 1)
        assert (p.x_true != 0).sum() == 10
        assert np.allclose(p.b, p.a @ p.x_true)

    def test_rejects_square(self):
        with pytest.raises(ValidationError):
            gen_sensing(10, 10, "uniform", 0)


def _assert_stopped_prefix(stopped, full, metric, tol):
    """Each stopped trace is the full run's, every metric included, up to
    the first step whose ``metric`` is at most ``tol``, and ends there.
    Both runs are dicts of traces by tau."""
    for tau, trace in stopped.items():
        whole = full[tau]
        n = len(trace.ks)
        assert n < len(whole.ks)
        assert (trace.ks, trace.inner_steps) == (whole.ks[:n], whole.inner_steps[:n])
        assert trace.metrics.keys() == whole.metrics.keys()
        for name, points in trace.metrics.items():
            assert points == whole.metrics[name][:n]
        values = trace.values(metric)
        assert len(values) == n
        assert values[-1] <= tol and all(v > tol for v in values[:-1])


class TestRunL1:
    def test_unregularized_identity_single_exact_step(self):
        rng = seeded_rng(2)
        b = rng.standard_normal(4)
        problem = SensingProblem(
            a=np.eye(4),
            b=b,
            x_true=b,
            spectrum_kind="uniform",
            seed=2,
            singular_values=np.ones(4),
        )
        result = run_l1(problem, 0.0, [1], beta=1e8, m=None, iterations=1, f_star=0.0)
        trace = result.traces[1]
        assert trace.values("objective")[-1] <= 1e-12
        assert np.linalg.norm(trace.state[0] - b) <= 1e-6

    def test_uniform_seed7_both_orders_converge(self):
        problem = gen_sensing(50, 100, "uniform", 7)
        result = run_l1(problem, 0.01, [1, 2], 1.0, 4, 5000, stop_tol=1e-6)
        for tau, trace in result.traces.items():
            gaps = np.array(trace.values("objective")) - result.f_star
            assert gaps[-1] <= 1e-6, f"tau={tau} never reached the gap target"
            assert trace.ks[-1] <= 5000

    def test_exp_decay_seed7_bdf2_no_slower_than_bdf1(self):
        problem = gen_sensing(50, 100, "exp_decay", 7)
        result = run_l1(problem, 0.01, [1, 2], 1.0, 4, 5000, stop_tol=1e-6)
        hits = {}
        for tau, trace in result.traces.items():
            gaps = np.array(trace.values("objective")) - result.f_star
            hits[tau] = next(k for k, g in zip(trace.ks, gaps) if g <= 1e-6)
        assert hits[2] <= hits[1]

    def test_gap_filled_in_after_the_runs_has_the_bits_of_a_known_f_star(self):
        # without f_star the reference runs next to the taus, and each gap is
        # filled in afterwards
        problem = gen_sensing(20, 40, "uniform", 5)
        result = run_l1(problem, 0.01, [1, 2, 3], 1.0, 4, 400)
        known = run_l1(problem, 0.01, [1, 2, 3], 1.0, 4, 400, f_star=result.f_star)
        for tau, trace in result.traces.items():
            assert trace.metrics == known.traces[tau].metrics
            assert len(trace.metrics["objective_gap"]) == 401

    def test_stop_tol_gives_a_prefix_of_the_unstopped_run(self):
        # the unstopped run with the same F*, cut at the first step whose
        # gap is at most the tolerance
        problem = gen_sensing(20, 40, "uniform", 5)
        stopped = run_l1(problem, 0.01, [1, 2, 3], 1.0, 4, 400, stop_tol=1e-8)
        full = run_l1(problem, 0.01, [1, 2, 3], 1.0, 4, 400, f_star=stopped.f_star)
        _assert_stopped_prefix(stopped.traces, full.traces, "objective_gap", 1e-8)

    def test_trace_replay_consistency(self):
        # every iterate of run_l1's bdf2 run reproduces from its predecessors
        problem = gen_sensing(20, 40, "uniform", 4)
        result = run_l1(problem, 0.05, [2], 1.0, 4, 30, f_star=0.0)
        objective = lasso_objective(problem, 0.05)
        trace, states = run_states(
            objective, MultistepConfig.bdf(2, 1.0, inner_m=4), np.zeros(40), 30
        )
        # run_l1 adds the objective gap to every metric ``run`` records
        l1_metrics = dict(result.traces[2].metrics)
        gaps = l1_metrics.pop("objective_gap")
        assert trace.metrics == l1_metrics
        assert gaps == [(k, value - 0.0) for k, value in trace.metrics["objective"]]
        alpha = 1.0 / (objective.smoothness + 1.0)
        for k in (5, 12, 25):
            history = states[k - 2 : k]
            x_mix = mix(history, (-1 / 3, 4 / 3))
            replay = approx_prox(objective, x_mix, history[-1], 1.0, 4, alpha)
            assert np.array_equal(replay, states[k])


class TestRunLsp:
    def test_large_theta_matches_l1_after_rescaling(self):
        problem = gen_sensing(20, 50, "uniform", 3)
        theta = 1e4
        cfg = MultistepConfig.bdf(2, 1.0, inner_m=4)
        x0 = np.zeros(50)
        _, l1 = run_states(lasso_objective(problem, 1.0 / theta), cfg, x0, 100)
        _, lsp = run_states(lsp_objective(problem, theta), cfg, x0, 100)
        worst = max(np.linalg.norm(a - b) for a, b in zip(l1, lsp))
        assert worst <= 1e-3

    def test_stationarity_regression_seed11(self):
        problem = gen_sensing(20, 50, "uniform", 11)
        trace = run_lsp(problem, 5.0, [2], 1.0, 4, 5000, stop_tol=1e-6, stat_every=1)[2]
        eps = trace.values("epsilon_beta")
        assert eps[-1] <= 1e-6
        assert trace.ks[-1] <= 5000
        assert eps[0] > eps[-1]

    def test_stop_tol_gives_a_prefix_of_the_unstopped_run(self):
        # with stop_tol, epsilon_beta is recorded at every step, and each run
        # is the run that records it at every step, cut where it first
        # reaches the tolerance
        problem = gen_sensing(20, 50, "uniform", 0)
        stopped = run_lsp(problem, 5.0, [1, 2, 3], 1.0, 4, 400, stop_tol=1e-8)
        full = run_lsp(problem, 5.0, [1, 2, 3], 1.0, 4, 400, stat_every=1)
        _assert_stopped_prefix(stopped, full, "epsilon_beta", 1e-8)

    def test_x_true_start_beats_random_start(self):
        problem = gen_sensing(20, 50, "uniform", 9)
        objective = lsp_objective(problem, 0.1)
        beta = 0.004
        eps_true = epsilon_stationarity(objective, problem.x_true, beta)
        eps_rand = epsilon_stationarity(
            objective, seeded_rng(100).standard_normal(50), beta
        )
        assert eps_true <= eps_rand


class TestGenSubspaces:
    def test_sigma_zero_gives_identical_spans(self):
        from proxflow.numerics import orthonormal_basis

        pair = gen_subspaces(30, 6, 0.0, 8)
        b1 = orthonormal_basis(pair.c1)
        b2 = orthonormal_basis(pair.c2)
        # sin of every principal angle (robust near zero angles)
        sines = np.linalg.svd(b2 - b1 @ (b1.T @ b2), compute_uv=False)
        assert sines.max() <= 1e-8

    def test_reference_dimensions(self):
        pair = gen_subspaces(500, 400, 0.5, 0)
        assert pair.c1.shape == (500, 400)
        assert pair.c2.shape == (500, 400)

    def test_deterministic(self):
        a = gen_subspaces(20, 5, 0.3, 6)
        b = gen_subspaces(20, 5, 0.3, 6)
        assert np.array_equal(a.c2, b.c2)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            gen_subspaces(10, 3, 1.5, 0)

    def test_pair_carries_its_bases(self):
        pair = gen_subspaces(30, 6, 0.4, 2)
        assert np.array_equal(pair.b1, orthonormal_basis(pair.c1))
        assert np.array_equal(pair.b2, orthonormal_basis(pair.c2))
        angled = prescribed_angle_pair([0.3, 0.7], ambient=6, seed=1)
        assert np.array_equal(angled.b2, orthonormal_basis(angled.c2))

    def test_rank_deficient_draw_is_redrawn(self, monkeypatch):
        calls = []

        def first_call_fails(c):
            calls.append(c)
            if len(calls) == 1:
                raise RankError("numerical rank 5 < 6 columns")
            return orthonormal_basis(c)

        monkeypatch.setattr(experiments, "orthonormal_basis", first_call_fails)
        pair = gen_subspaces(30, 6, 0.4, 2)
        # the second draw uses the bumped seed and keeps the caller's seed
        assert np.array_equal(pair.c1, seeded_rng(2 + 1000003).standard_normal((30, 6)))
        assert pair.seed == 2
        assert len(calls) == 3

    def test_rank_deficient_generator_raises_when_built(self):
        with pytest.raises(RankError):
            experiments.SubspacePair(np.ones((5, 2)), np.eye(5)[:, :2], None, None)

    def test_run_altproj_computes_each_basis_once(self, monkeypatch, tmp_path):
        from proxflow import altproj_accel, cli, numerics

        calls = []

        def counted(c):
            calls.append(np.shape(c))
            return orthonormal_basis(c)

        for module in (experiments, altproj_accel, numerics):
            monkeypatch.setattr(module, "orthonormal_basis", counted)
        args = ["run", "altproj", "--n", "40", "--d", "30", "--iters", "20"]
        assert cli.main([*args, "--out", str(tmp_path)]) == 0
        assert calls == [(40, 30), (40, 30)]


class TestRunAltproj:
    def test_intersection_point_is_fixed(self):
        # first principal angle 0: e_1 lies in both subspaces
        pair = prescribed_angle_pair([0.0, 0.9], ambient=6)
        x0 = np.zeros(6)
        x0[0] = 1.0
        trace = altproj_trace(pair, (1.0,), 20, x0=x0)
        assert max(trace.values("residual")) <= 1e-12

    def test_single_step_rate_is_top_eigenvalue(self):
        pair = prescribed_angle_pair([0.35, 0.8], ambient=8, seed=1)
        lam_max = projection_spectrum(pair).eigenvalues.max()
        trace = altproj_trace(pair, (1.0,), 200)
        r = np.array(trace.values("residual"))
        measured = (r[180] / r[80]) ** (1.0 / 100.0)
        assert measured == pytest.approx(lam_max, rel=0.02)

    def test_single_step_monotone(self):
        pair = gen_subspaces(40, 10, 0.4, 2)
        trace = altproj_trace(pair, (1.0,), 150)
        r = np.array(trace.values("residual"))
        assert np.all(r[1:] <= r[:-1] + 1e-12)

    def test_ill_conditioned_seed13_bdf2_faster(self):
        pair = gen_subspaces(60, 10, 0.3, 13)
        traces = run_altproj(pair, [1, 2], 1000)
        hits = {
            tau: next(k for k, v in zip(tr.ks, tr.values("residual")) if v <= 1e-8)
            for tau, tr in traces.items()
        }
        assert hits[2] < hits[1]


class TestRunMatfac:
    def test_exact_factorization_is_fixed_point(self):
        rng = seeded_rng(14)
        u = rng.standard_normal((12, 3))
        v = rng.standard_normal((12, 3))
        problem = gen_matfac(12, 3, 0.5, 14)
        problem.r_matrix[:] = u @ v.T
        trace = matfac_trace(problem, (-1 / 3, 4 / 3), 25, factors0=(u, v))
        assert max(trace.values("objective")) <= 1e-10
        u_end, v_end = trace.state
        assert np.linalg.norm(u_end - u) <= 1e-10
        assert np.linalg.norm(v_end - v) <= 1e-10

    def test_block_solves_are_optimal(self):
        problem = gen_matfac(15, 4, 0.3, 5)
        trace = matfac_trace(problem, (1.0,), 1)
        rng = seeded_rng(5)
        u0 = rng.standard_normal((15, 4))
        v0 = rng.standard_normal((15, 4))
        u1, v1 = trace.state
        r = problem.r_matrix
        g_u = (u1 @ v0.T - r) @ v0 + (u1 - u0) / problem.alpha
        g_v = (v1 @ u1.T - r.T) @ u1 + (v1 - v0) / problem.alpha
        scale = max(np.linalg.norm(r), 1.0)
        assert np.abs(g_u).max() <= 1e-9 * scale
        assert np.abs(g_v).max() <= 1e-9 * scale

    def test_reference_dimension_run(self):
        problem = gen_matfac(100, 10, 0.1, 3)
        traces = run_matfac(problem, [1, 2], 40)
        for trace in traces.values():
            assert trace.values("objective")[-1] < trace.values("objective")[0]


def read_traces(path):
    """Rows of a trace CSV, with the integer columns and metric_value parsed."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("tau", "k", "diverged"):
            row[key] = int(row[key])
        row["metric_value"] = float(row["metric_value"])
    return rows


class TestSerialization:
    def _series(self):
        problem = gen_sensing(10, 20, "uniform", 6)
        result = run_l1(problem, 0.05, [1, 2], 1.0, 4, 12, f_star=0.0)
        series = list(result.traces.values())
        for trace in series:
            trace.experiment, trace.seed = "l1", 6
        return series

    def test_csv_header_and_roundtrip(self, tmp_path):
        series = self._series()
        path = tmp_path / "traces.csv"
        emit_csv(series, path)
        text = path.read_text().splitlines()
        assert text[0] == "experiment,seed,tau,k,metric_name,metric_value,walltime_s,diverged"
        rows = read_traces(path)
        by_key = {
            (r["tau"], r["k"], r["metric_name"]): r["metric_value"] for r in rows
        }
        for s in series:
            for name, points in s.metrics.items():
                for k, v in points:
                    assert by_key[(s.tau, k, name)] == v  # bit-exact

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_csv([], tmp_path / "x.csv")
        with pytest.raises(ValidationError):
            emit_svg([], tmp_path / "x.svg", AxesSpec("t", "x", "y", "objective"))

    def test_svg_well_formed(self, tmp_path):
        series = self._series()
        path = tmp_path / "plot.svg"
        emit_svg(series, path, AxesSpec("l1 <test>", "iteration", "gap", "objective"))
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == len(series)

    def test_svg_escapes_text_as_before(self, tmp_path):
        title = """a&b<c>d"e'f"""
        path = tmp_path / "plot.svg"
        emit_svg(self._series(), path, AxesSpec(title, "x<1", "y&z", "objective"))
        text = path.read_text()
        # & < > are escaped, quotes are kept, as xml.sax.saxutils.escape does
        assert sax_escape(title) == """a&amp;b&lt;c&gt;d"e'f"""
        assert f'font-size="16">{sax_escape(title)}</text>' in text
        assert ">x&lt;1</text>" in text
        assert ">y&amp;z</text>" in text
        assert ET.parse(path).getroot().find(".//{*}text").text == title

    def test_diverged_flag_on_last_row_only(self, tmp_path):
        series = self._series()
        series[0].diverged_at = series[0].metrics["objective"][-1][0]
        path = tmp_path / "d.csv"
        emit_csv(series, path)
        rows = [r for r in read_traces(path) if r["tau"] == series[0].tau]
        last_k = max(r["k"] for r in rows)
        for r in rows:
            assert r["diverged"] == (1 if r["k"] == last_k else 0)

"""Error-path contracts: invalid inputs are rejected with the named errors."""

import numpy as np
import pytest

from proxflow.experiments import (
    AxesSpec,
    emit_svg,
    gen_matfac,
    gen_sensing,
    gen_subspaces,
)
from proxflow.multistep import (
    MultistepConfig,
    Trace,
    approx_prox,
    quadratic_objective,
)
from proxflow.numerics import (
    TOL,
    ValidationError,
    polynomial_max_root_modulus,
    solve_linear,
    sym_eigen,
)
from proxflow.prox_ops import QuadraticProblem, prox_lsp
from proxflow.spectral import CompanionSpec, _lambda_grid, max_stable_alpha
from proxflow.altproj_accel import multistep_altproj_radius


def test_sym_eigen_dimension_cap():
    with pytest.raises(ValidationError, match="2000"):
        sym_eigen(np.eye(2001))


def test_solve_linear_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        solve_linear(np.eye(3), np.ones(2))
    with pytest.raises(ValidationError, match="square"):
        solve_linear(np.ones((2, 3)), np.ones(3))


def test_polynomial_rejects_nonfinite():
    with pytest.raises(ValidationError):
        polynomial_max_root_modulus([1.0, np.nan])


def test_prox_lsp_negative_weight():
    with pytest.raises(ValidationError, match="beta"):
        prox_lsp(np.ones(2), 1.0, -0.1)


def test_approx_prox_negative_m():
    objective = quadratic_objective(QuadraticProblem(np.eye(2)))
    with pytest.raises(ValidationError):
        approx_prox(objective, np.ones(2), np.ones(2), 1.0, -1, 0.1)


def test_config_rejects_unknown_policies():
    with pytest.raises(ValidationError, match="warmup"):
        MultistepConfig(xi=(1.0,), beta=1.0, warmup="bogus")
    with pytest.raises(ValidationError, match="inner_start"):
        MultistepConfig(xi=(1.0,), beta=1.0, inner_start="bogus")


def test_companion_spec_rejects_zero_m():
    with pytest.raises(ValidationError, match="m"):
        CompanionSpec((1.0,), alpha=0.1, beta=1.0, m=0)


def test_companion_spec_rejects_tau_above_kernel_degree():
    tau = TOL.max_poly_degree + 1
    with pytest.raises(ValidationError, match="weights"):
        CompanionSpec((1.0 / tau,) * tau, alpha=0.1, beta=1.0, m=1)


def test_companion_spec_rejects_empty_xi():
    with pytest.raises(ValidationError, match="weights"):
        CompanionSpec((), alpha=0.1, beta=1.0, m=1)


def test_lambda_grid_rejects_bad_range():
    with pytest.raises(ValidationError):
        _lambda_grid(2.0, 1.0)
    with pytest.raises(ValidationError):
        _lambda_grid(-0.1, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_spectral_parameters_are_rejected(bad):
    # a NaN compares false with every bound, so range checks alone let it
    # through, and max_stable_alpha would report alpha = 0 as if no step
    # were stable
    with pytest.raises(ValidationError, match="finite"):
        CompanionSpec((1.0,), alpha=bad, beta=1.0, m=1)
    with pytest.raises(ValidationError, match="finite"):
        CompanionSpec((1.0,), alpha=0.1, beta=bad, m=1)
    with pytest.raises(ValidationError, match="finite"):
        CompanionSpec((0.5, bad), alpha=0.1, beta=1.0, m=1)
    with pytest.raises(ValidationError, match="finite"):
        _lambda_grid(bad, 1.0)
    with pytest.raises(ValidationError, match="finite"):
        _lambda_grid(1.0, bad)
    for args in [
        (bad, 2.0, 1.0, 4, (1.0,)),
        (1.0, bad, 1.0, 4, (1.0,)),
        (1.0, 2.0, bad, 4, (1.0,)),
        (1.0, 2.0, 1.0, 4, (bad, 0.5)),
    ]:
        with pytest.raises(ValidationError, match="finite"):
            max_stable_alpha(*args)


def test_gen_sensing_rejects_unknown_spectrum():
    with pytest.raises(ValidationError, match="spectrum_kind"):
        gen_sensing(5, 10, "bogus", 0)


def test_gen_subspaces_rejects_bad_dims():
    with pytest.raises(ValidationError):
        gen_subspaces(5, 5, 0.5, 0)


def test_gen_matfac_rejects_bad_rank():
    with pytest.raises(ValidationError, match="rank"):
        gen_matfac(5, 6, 0.1, 0)


def test_emit_svg_rejects_unplottable_metric(tmp_path):
    series = [
        Trace(
            1, "x", 0, ks=[0, 1], metrics={"objective": [(0, 0.0), (1, 0.0)]},
            walltime_s=[0.0, 0.0],
        )
    ]
    with pytest.raises(ValidationError, match="plottable"):
        emit_svg(series, tmp_path / "x.svg", AxesSpec("t", "x", "y", "objective"))


def test_altproj_radius_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        multistep_altproj_radius(1.5, (1.0,))
    with pytest.raises(ValidationError):
        multistep_altproj_radius(0.5, (0.4, 0.4))


def test_diverged_trace_ends_at_flag():
    from proxflow.experiments import run_l1

    problem = gen_sensing(10, 20, "uniform", 3)
    result = run_l1(
        problem, 0.01, [1], 1.0, 5, 50, f_star=0.0, inner_alpha=1e9
    )
    trace = result.traces[1]
    assert trace.diverged
    assert trace.ks[-1] == trace.diverged_at - 1
    assert np.all(np.isfinite(trace.values("objective")))

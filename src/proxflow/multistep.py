"""Multi-step approximate proximal point driver.

The outer iteration mixes the last ``tau`` iterates with weights ``xi``
(an affine combination, sum 1), then takes an approximate prox step of
weight ``beta`` on the mixed point:

    x_mix = xi_1 x^(k-tau+1) + ... + xi_tau x^(k)
    x^(k+1) ~ argmin_x F(x) + (1/2 beta) |x - x_mix|^2

The inner solver is ``inner_m`` steps of proximal gradient descent on the
prox subproblem, started at the most recent accepted iterate (or at the
mixed point, see ``inner_start``), which contracts toward the exact prox
by ``gamma_bound(beta, L, m)`` per call.
"""

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .numerics import TOL, ValidationError, as_vector
from .prox_ops import prox_quadratic


class UnsupportedOrderError(ValidationError):
    """BDF coefficients requested for an order outside 1..4."""


class DegenerateParameterError(ArithmeticError):
    """A theorem constant is undefined for the given parameters."""


class DivergenceError(ArithmeticError):
    """Iteration produced a non-finite or runaway iterate.

    ``trace`` carries the partial Trace up to the failure; ``step``
    is the inner-solver step index when the inner loop failed.
    """

    def __init__(self, message, trace=None, step=None):
        super().__init__(message)
        self.trace = trace
        self.step = step


_BDF_TABLE = {
    1: ((Fraction(1),), Fraction(1)),
    2: ((Fraction(-1, 3), Fraction(4, 3)), Fraction(2, 3)),
    3: ((Fraction(2, 11), Fraction(-9, 11), Fraction(18, 11)), Fraction(6, 11)),
    4: (
        (Fraction(-3, 25), Fraction(16, 25), Fraction(-36, 25), Fraction(48, 25)),
        Fraction(12, 25),
    ),
}

assert all(sum(xi) == 1 for xi, _ in _BDF_TABLE.values())


def bdf_coefficients(tau, exact=False):
    """Mixing weights (xi, xi_bar) of the order-``tau`` BDF scheme.

    ``xi[-1]`` multiplies the most recent iterate. With ``exact=True``
    the weights are returned as Fractions (their sum is exactly 1).
    """
    if tau not in _BDF_TABLE:
        raise UnsupportedOrderError(
            f"BDF order must be in 1..4, got {tau!r} "
            "(custom weights can be supplied via MultistepConfig)"
        )
    xi, xi_bar = _BDF_TABLE[tau]
    if exact:
        return list(xi), xi_bar
    return [float(v) for v in xi], float(xi_bar)


@dataclass
class CompositeObjective:
    """Oracle bundle for F = f + h.

    ``prox_h(v, t)`` evaluates prox_{t h}(v). ``exact_prox(x, beta)``,
    when available, evaluates prox_{beta F}(x) exactly and is preferred
    by the stationarity measure and by runs with ``inner_m=None``.
    """

    value: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    prox_h: Callable[[np.ndarray, float], np.ndarray]
    smoothness: float
    convexity: float
    exact_prox: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    minimizer: Optional[np.ndarray] = None


def quadratic_objective(problem):
    """Composite view of a QuadraticProblem (h = 0, exact prox available)."""
    minimizer = None
    if problem.mu > 0:
        minimizer = np.linalg.solve(problem.q, -problem.c)
    return CompositeObjective(
        value=problem.value,
        grad_f=problem.grad,
        prox_h=lambda v, t: v,
        smoothness=problem.lmax,
        convexity=problem.mu,
        exact_prox=lambda x, beta: prox_quadratic(problem, x, beta),
        minimizer=minimizer,
    )


@dataclass
class MultistepConfig:
    """Configuration of the multi-step outer iteration.

    inner_m = None requests the exact prox (the objective must provide
    one). ``inner_alpha`` defaults to beta / (beta L + 1) at run time.
    The order tau is the number of mixing weights ``xi``. Warmup: "ramp"
    grows the BDF order while fewer than tau iterates exist; "repeat" pads
    the history with x0.
    """

    xi: tuple
    beta: float
    inner_m: Optional[int] = 8
    inner_alpha: Optional[float] = None
    warmup: str = "ramp"
    inner_start: str = "previous"

    def __post_init__(self):
        self.xi = tuple(float(v) for v in self.xi)
        if not 1 <= self.tau <= 16:
            raise ValidationError(f"xi must hold 1..16 weights, got {self.tau}")
        if abs(sum(self.xi) - 1.0) > TOL.mixing_weight_sum:
            raise ValidationError(f"xi must sum to 1, got {sum(self.xi)!r}")
        if self.beta <= 0:
            raise ValidationError(f"beta must be > 0, got {self.beta}")
        if self.inner_m is not None and self.inner_m < 0:
            raise ValidationError(f"inner_m must be >= 0, got {self.inner_m}")
        if self.inner_alpha is not None and self.inner_alpha <= 0:
            raise ValidationError(f"inner_alpha must be > 0, got {self.inner_alpha}")
        if self.warmup not in ("ramp", "repeat"):
            raise ValidationError(f"unknown warmup policy {self.warmup!r}")
        if self.inner_start not in ("previous", "mixed"):
            raise ValidationError(f"unknown inner_start {self.inner_start!r}")

    @property
    def tau(self):
        return len(self.xi)

    @classmethod
    def bdf(cls, tau, beta, **kwargs):
        return cls(xi=tuple(bdf_coefficients(tau)[0]), beta=beta, **kwargs)


def mix(states, xi):
    """Weighted sum of states; xi[-1] weights the most recent."""
    if len(states) != len(xi):
        raise ValidationError(
            f"history holds {len(states)} iterates but xi has {len(xi)} weights"
        )
    out = np.zeros_like(states[0])
    for w, x in zip(xi, states):
        out += w * x
    return out


def gamma_bound(beta, smoothness, m):
    """Inner-solver contraction factor (1 - 1/(beta L + 1))^m."""
    if beta <= 0 or smoothness <= 0:
        raise ValidationError("beta and L must be > 0")
    if m < 0:
        raise ValidationError("m must be >= 0")
    return (1.0 - 1.0 / (beta * smoothness + 1.0)) ** m


def approx_prox(objective, x_mix, start, beta, m, alpha):
    """m proximal-gradient steps on the prox subproblem at ``x_mix``.

    Each step is x <- prox_{alpha h}(x - alpha grad_f(x)
    - (alpha/beta)(x - x_mix)); m = 0 returns ``start`` unchanged.
    ``start`` and ``x_mix`` are validated once per call; the steps check
    only that each iterate stays finite.
    """
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    if alpha <= 0 or beta <= 0:
        raise ValidationError("alpha and beta must be > 0")
    x = as_vector(start, "start").copy()
    x_mix = as_vector(x_mix, "x_mix")
    ratio = alpha / beta
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m):
            g = objective.grad_f(x)
            x = objective.prox_h(x - alpha * g - ratio * (x - x_mix), alpha)
            if not np.isfinite(x).all():
                raise DivergenceError(
                    f"inner solver diverged at step {i + 1}", step=i + 1
                )
    return x


@dataclass
class Trace:
    """Record of one multistep run; step 0 is the start.

    ``metrics`` maps a metric name to its (k, value) points, which
    ``emit_csv`` writes and ``emit_svg`` plots; ``ks`` and ``walltime_s``
    hold one entry per accepted state, and ``state`` is the last accepted
    state (a tuple of blocks). ``fixed_at`` is the first step accepted
    without calling the step map (see ``iterate``), or None, and
    ``diverged_at`` the step at which the run diverged, or None.
    ``inner_steps`` is filled by ``run`` only.
    ``experiment`` and ``seed`` label the CSV rows.
    """

    tau: int
    experiment: str = ""
    seed: int = 0
    ks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    walltime_s: list = field(default_factory=list)
    inner_steps: list = field(default_factory=list)
    state: Optional[tuple] = None
    diverged_at: Optional[int] = None
    fixed_at: Optional[int] = None

    @property
    def diverged(self):
        return self.diverged_at is not None

    def add(self, name, k, value):
        self.metrics.setdefault(name, []).append((k, value))

    def values(self, name):
        """The recorded values of one metric, in step order."""
        return [v for _, v in self.metrics[name]]


def _same_bytes(a, b):
    """Whether two states hold the same blocks, bit for bit.

    ``==`` would equate -0.0 with 0.0 and could put a zero of the other
    sign into the trace.
    """
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def iterate(step, x0, xi, iterations, record, warmup="ramp", stop=None):
    """The multistep engine: mix the last tau states, then apply ``step``.

    A state is a tuple of arrays (blocks), mixed block by block with the
    weights ``xi``. ``step(mixed, last)`` returns the next state given the
    mixed state and the most recent one. ``record(trace, k, state)`` adds
    the metrics of each accepted state, the start included, and
    ``stop(trace)``, checked after each record, the start's included, ends
    the run early.

    Warmup: "ramp" mixes with the BDF row of the available order while
    fewer than tau states exist (orders above 4 pad with x0); "repeat"
    fills the history with x0. A state with a non-finite block or a block
    norm above ``TOL.divergence_norm`` is rejected. Divergence, there or
    raised by ``step`` or ``record``, sets ``trace.diverged_at`` to the
    failing step and raises DivergenceError carrying it.

    ``step`` must be a deterministic function of its arguments. A step
    whose blocks have the bytes of the last state's is accepted as that
    state object. Once a full window of tau copies of one state has been
    stepped onto that state, every later step would return it again, so
    it is accepted without calling ``mix``, ``step`` or the divergence
    check; ``trace.fixed_at`` records the first such step. ``record`` and
    ``stop`` still run on every step. A negative ``iterations`` raises
    ``ValidationError``.
    """
    if iterations < 0:
        raise ValidationError(f"iterations must be >= 0, got {iterations}")
    tau = len(xi)
    trace = Trace(tau, ks=[0], walltime_s=[0.0], state=x0)
    states = [x0] * tau if warmup == "repeat" else [x0]
    fixed = False
    k = 0
    try:
        record(trace, 0, x0)
        if stop is not None and stop(trace):
            return trace
        for k in range(1, iterations + 1):
            t0 = time.perf_counter()
            last = states[-1]
            if fixed:
                if trace.fixed_at is None:
                    trace.fixed_at = k
                x_next = last
            else:
                weights, mixed_from = xi, states
                if len(states) < tau:
                    if len(states) in _BDF_TABLE:
                        weights = bdf_coefficients(len(states))[0]
                    else:
                        mixed_from = [x0] * (tau - len(states)) + states
                mixed = tuple(mix(blocks, weights) for blocks in zip(*mixed_from))
                x_next = step(mixed, last)
                for block in x_next:
                    norm = float(np.linalg.norm(block))
                    if not math.isfinite(norm) or norm > TOL.divergence_norm:
                        raise DivergenceError(f"iterate norm {norm:.3e} at outer step {k}")
                if _same_bytes(x_next, last):
                    x_next = last
                    fixed = len(states) == tau and all(s is last for s in states)
                states.append(x_next)
                if len(states) > tau:
                    states.pop(0)
            trace.ks.append(k)
            trace.walltime_s.append(time.perf_counter() - t0)
            trace.state = x_next
            record(trace, k, x_next)
            if stop is not None and stop(trace):
                break
    except DivergenceError as err:
        trace.diverged_at = k
        err.trace = trace
        raise
    return trace


def _memo_last(fn):
    """``fn`` with a one-entry cache keyed on the identity of its argument."""
    last = [None, None]

    def cached(x):
        if last[0] is not x:
            last[:] = x, fn(x)
        return last[1]

    return cached


def run(objective, cfg, x0, iterations, stat_every=0, stop=None):
    """Run the multistep iteration for ``iterations`` outer steps.

    Each step is ``approx_prox`` (or the exact prox when ``cfg.inner_m``
    is None) on the mixed iterate. The trace records the metrics
    "objective", "iterate_error" (when the minimizer is known) and
    "epsilon_beta" (every ``stat_every`` iterations when that is > 0);
    ``trace.state`` holds the last iterate. ``inner_steps`` counts the
    inner steps each outer step ran: none from ``trace.fixed_at`` on.
    ``stop(trace)``, called after the start and each step have been
    recorded (``trace.state`` is then that iterate), stops the run when it
    returns true.
    Divergence (non-finite iterate or norm above ``TOL.divergence_norm``)
    raises DivergenceError carrying the partial trace.
    """
    if cfg.inner_m is None and objective.exact_prox is None:
        raise ValidationError("inner_m=None requires an exact prox oracle")

    x0 = as_vector(x0, "x0")
    beta = cfg.beta
    alpha = cfg.inner_alpha
    if alpha is None:
        alpha = beta / (beta * objective.smoothness + 1.0)
    inner = 0 if cfg.inner_m is None else cfg.inner_m

    def step(mixed, last):
        if cfg.inner_m is None:
            return (objective.exact_prox(mixed[0], beta),)
        start = last[0] if cfg.inner_start == "previous" else mixed[0]
        return (approx_prox(objective, mixed[0], start, beta, cfg.inner_m, alpha),)

    # at a fixed point the engine passes the same state object on every
    # step, so each metric is computed once there
    value_of = _memo_last(lambda x: float(objective.value(x)))
    error_of = _memo_last(lambda x: float(np.linalg.norm(x - objective.minimizer)))
    stationarity_of = _memo_last(
        lambda x: epsilon_stationarity(objective, x, beta, inner_alpha=alpha)
    )

    def record(trace, k, state):
        x = state[0]
        trace.inner_steps.append(inner if k and trace.fixed_at is None else 0)
        trace.add("objective", k, value_of(x))
        if objective.minimizer is not None:
            trace.add("iterate_error", k, error_of(x))
        if stat_every > 0 and k % stat_every == 0:
            trace.add("epsilon_beta", k, stationarity_of(x))

    return iterate(step, (x0,), cfg.xi, iterations, record, cfg.warmup, stop)


def epsilon_stationarity(objective, x, beta, inner_alpha=None):
    """Scaled prox residual |prox_{beta F}(x) - x| / beta.

    Uses the exact prox when the objective provides one, otherwise a
    high-budget inner solve (m chosen so the contraction bound is below
    1e-12, capped at 100000 steps).
    """
    x = as_vector(x, "x")
    if beta <= 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    if objective.exact_prox is not None:
        p = objective.exact_prox(x, beta)
    else:
        per_step = 1.0 - 1.0 / (beta * objective.smoothness + 1.0)
        inner_m = min(100000, int(math.ceil(math.log(1e-12) / math.log(per_step))))
        if inner_alpha is None:
            inner_alpha = beta / (beta * objective.smoothness + 1.0)
        p = approx_prox(objective, x, x, beta, inner_m, inner_alpha)
    return float(np.linalg.norm((p - x) / beta))


def delta_constant(xi):
    """Multistep nonconvexity constant.

    delta = (tau - 1) * sum_{j=1}^{tau-1} sum_{i=1}^{j} (tau - i) xi_i^2.
    Exact when called with Fractions; 0 for tau = 1.
    """
    tau = len(xi)
    total = xi[0] * 0  # zero of the caller's numeric type
    for j in range(1, tau):
        for i in range(1, j + 1):
            total += (tau - i) * xi[i - 1] * xi[i - 1]
    return (tau - 1) * total


@dataclass(frozen=True)
class TheoremBounds:
    """Computable constants of the convergence theorems.

    Strongly convex fields apply for mu > 0, weakly convex fields for
    mu < 0; everything is evaluated regardless so callers can inspect
    boundary cases.
    """

    eta: float
    beta_min_strongly_convex: float
    gamma_max: float
    delta: float
    beta_max_weakly_convex_exact: float
    delta_inexact: float
    beta_max_weakly_convex_inexact: float
    rate_per_step: float


def theorem_bounds(cfg, mu, smoothness, gamma):
    """Evaluate the theorem constants for a config on a (mu, L) problem."""
    if mu == 0:
        raise DegenerateParameterError("mu = 0 makes the beta bounds divide by zero")
    beta = cfg.beta
    eta = sum(abs(v) for v in cfg.xi)
    denom = beta * mu + eta + 1.0
    if denom == 0:
        raise DegenerateParameterError("beta*mu + eta + 1 = 0")
    delta = delta_constant(cfg.xi)
    delta_inexact = (1.0 + gamma**2 * (1.0 + beta * smoothness) ** 2) * delta
    per_block = gamma + (1.0 + gamma) * eta / (1.0 + beta * mu)
    rate = per_block ** (1.0 / cfg.tau) if per_block >= 0 else float("nan")
    return TheoremBounds(
        eta=eta,
        beta_min_strongly_convex=(eta - 1.0) / mu,
        gamma_max=(beta * mu - eta + 1.0) / denom,
        delta=delta,
        beta_max_weakly_convex_exact=(1.0 - delta) / (-mu),
        delta_inexact=delta_inexact,
        beta_max_weakly_convex_inexact=(2.0 - 4.0 * delta_inexact) / (-mu),
        rate_per_step=rate,
    )

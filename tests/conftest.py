import numpy as np
import pytest

from proxflow.multistep import run
from proxflow.numerics import seeded_rng


@pytest.fixture
def rng():
    return seeded_rng(12345)


def random_spd(rng, n, mu=0.5):
    """Random symmetric positive definite matrix with min eigenvalue >= mu."""
    a = rng.standard_normal((n, n))
    m = a @ a.T / n + mu * np.eye(n)
    return 0.5 * (m + m.T)


def random_symmetric_with_spectrum(rng, eigs):
    """Symmetric matrix with exactly the given eigenvalues."""
    n = len(eigs)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = q @ np.diag(eigs) @ q.T
    return 0.5 * (m + m.T)


def run_states(objective, cfg, x0, iterations, **kwargs):
    """``multistep.run`` and the first block of every iterate, x0 included.

    The iterates are collected by a stop predicate that never stops, which
    ``run`` calls on the start too.
    """
    states = []

    def collect(trace):
        states.append(trace.state[0])
        return False

    trace = run(objective, cfg, x0, iterations, stop=collect, **kwargs)
    return trace, states

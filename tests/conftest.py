"""Shared builders for the test suite."""
# First, before numpy loads: oficast.cli sets one BLAS thread per process,
# as every CLI run has, so the in-process 2-worker sweep pools do not run
# a BLAS thread per core in each worker and oversubscribe the cores.
import oficast.cli  # noqa: F401
import os
from pathlib import Path

import numpy as np
import pytest

import oficast
from oficast.neural_net import _forward_scaled


def make_counts(rows):
    """(buy, sell) pairs as an (n, 2) int64 count array."""
    return np.array(list(rows), dtype=np.int64).reshape(-1, 2)


def stable_var1_series(n, x0=(10.0, 3.0)):
    """Noise-free VAR(1) trajectory with a damped rotation and an offset.

    The two coordinates decay at different phases toward a nonzero fixed
    point, so the lagged design matrix keeps full column rank for any
    reasonable n.  Returned as a float (n, 2) array.
    """
    A = np.array([[0.5, 0.1], [-0.1, 0.3]])
    c = np.array([2.0, 1.0])
    out = np.empty((n, 2))
    out[0] = x0
    for t in range(1, n):
        out[t] = c + A @ out[t - 1]
    return A, c, out


def noisy_ar1_counts(n, seed, phi=0.6, base=30.0):
    """Integer count series whose net flow follows a single-lag AR process."""
    rng = np.random.default_rng(seed)
    rows = []
    level = 0.0
    for _ in range(n):
        level = phi * level + rng.normal(0.0, 2.0)
        buy = max(int(round(base + level + rng.normal(0.0, 1.0))), 0)
        sell = max(int(round(base - level + rng.normal(0.0, 1.0))), 0)
        rows.append((buy, sell))
    return make_counts(rows)


def white_noise_counts(n, seed, base=30):
    rng = np.random.default_rng(seed)
    return make_counts(zip(rng.poisson(base, n), rng.poisson(base, n)))


def kink_free_batch(model, n, seed, step=1e-5, margin=10.0, tries=200):
    """Random batch whose relu pre-activations all sit away from zero.

    Central differences straddling a kink measure the kink, not the
    gradient, so relu gradient checks need inputs where every unit is
    decisively on or off (|z| > margin * step).
    """
    rng = np.random.default_rng(seed)
    d_in = model.topology.input_dim
    d_out = model.topology.output_dim
    for _ in range(tries):
        xs = rng.normal(0.0, 1.0, size=(n, d_in))
        ys = rng.normal(0.0, 1.0, size=(n, d_out))
        acts = _forward_scaled(model, xs)
        hidden_pre = [a @ w + b for a, w, b in zip(acts, model.weights[:-1], model.biases[:-1])]
        if all(np.min(np.abs(z)) > margin * step for z in hidden_pre):
            return xs, ys
    pytest.fail("could not sample a batch away from relu kinks")


@pytest.fixture
def oficast_env():
    """Environment for child processes that must import this oficast.

    A copy of ``os.environ`` with the directory holding the imported
    ``oficast`` package first on PYTHONPATH, as an absolute path, so a
    child started in another working directory imports the same package
    whether it comes from an installed distribution or a checkout.
    Entries already on PYTHONPATH are kept after it.
    """
    root = str(Path(oficast.__file__).resolve().parent.parent)
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, rest]) if rest else root
    return env

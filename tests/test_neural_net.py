import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oficast.neural_net import (
    ACTIVATIONS,
    AffineScaler,
    FnnModel,
    FnnTopology,
    TrainConfig,
    DIVERGED_LOSS,
    TrainingDivergedError,
    _Adam,
    _Sgd,
    _sigmoid,
    backward,
    forward,
    gradient_check,
    init_model,
    load_fnn,
    loss,
    save_fnn,
    train,
    training_loss,
    write_trace_csv,
)

from conftest import kink_free_batch


def hand_forward(model, x):
    """Straight-line recomputation of the forward pass, no shared code."""
    acts = {
        "relu": lambda z: np.maximum(z, 0.0),
        "tanh": np.tanh,
        "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    }
    act = acts[model.topology.activation]
    out = (x - model.input_scaler.mean) / model.input_scaler.scale
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = out @ w + b
        if i != last:
            out = act(out)
    return out * model.target_scaler.scale + model.target_scaler.mean


def masked_sigmoid(x):
    """The two-branch logistic function evaluated through boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ------------------------------------------------------------------ forward

def test_identity_relu_network():
    model = init_model(FnnTopology(2, (2,), 2, "relu"))
    model.weights = [np.eye(2), np.eye(2)]
    model.biases = [np.zeros(2), np.zeros(2)]
    np.testing.assert_array_equal(forward(model, np.array([1.0, -1.0])), [1.0, 0.0])


def test_zero_weights_output_is_bias():
    model = init_model(FnnTopology(3, (4,), 2, "tanh"))
    model.weights = [np.zeros_like(w) for w in model.weights]
    model.biases[-1] = np.array([0.7, -0.2])
    for x in ([0.0, 0.0, 0.0], [5.0, -3.0, 100.0]):
        np.testing.assert_allclose(forward(model, np.array(x)), [0.7, -0.2], atol=1e-15)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_matches_hand_rolled_oracle(activation):
    model = init_model(FnnTopology(2, (16,), 2, activation), seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(7, 2))
    np.testing.assert_allclose(forward(model, x), hand_forward(model, x), atol=1e-10)


def test_sigmoid_matches_masked_formula_bit_for_bit():
    x = np.concatenate([
        [-1000.0, -745.0, -30.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 30.0, 745.0, 1000.0],
        np.random.default_rng(0).normal(0.0, 10.0, size=200),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow at +-1000
        got = _sigmoid(x)
    np.testing.assert_array_equal(got, masked_sigmoid(x))
    assert got[0] == 0.0 and got[11] == 1.0


def test_forward_single_sample_matches_batch():
    model = init_model(FnnTopology(3, (5,), 2, "tanh"), seed=1)
    x = np.array([0.3, -1.2, 0.8])
    np.testing.assert_array_equal(forward(model, x), forward(model, x[None, :])[0])


def test_forward_rejects_wrong_width():
    model = init_model(FnnTopology(3, (5,), 2))
    with pytest.raises(ValueError, match="width"):
        forward(model, np.zeros((4, 2)))


def test_topology_validation():
    with pytest.raises(ValueError):
        FnnTopology(0, (4,), 1)
    with pytest.raises(ValueError):
        FnnTopology(2, (0,), 1)
    with pytest.raises(ValueError):
        FnnTopology(2, (4,), 1, "softplus")
    assert FnnTopology(2, (32, 16), 2).layer_dims == (2, 32, 16, 2)


# --------------------------------------------------------------------- loss

def test_loss_examples():
    assert loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert loss(np.array([0.0, 0.0]), np.array([1.0, -1.0])) == 1.0


def test_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p, t = rng.normal(size=(2, 6, 3))
        assert loss(p, t) >= 0.0


def test_loss_rejects_mismatch_and_empty():
    with pytest.raises(ValueError):
        loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        loss(np.zeros((0, 2)), np.zeros((0, 2)))


# ---------------------------------------------------------------- gradients

def test_zero_residual_zero_gradient():
    model = init_model(FnnTopology(2, (4,), 2, "tanh"), seed=5)
    x = np.array([[0.3, -0.7], [1.1, 0.2]])
    y = forward(model, x)
    wg, bg = backward(model, x, y)
    for g in wg + bg:
        np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_single_linear_neuron_closed_form():
    model = init_model(FnnTopology(1, (), 1))
    model.weights = [np.array([[0.7]])]
    model.biases = [np.array([0.2])]
    x, y = 1.5, 0.4
    wg, bg = backward(model, np.array([[x]]), np.array([[y]]))
    resid = 0.7 * x + 0.2 - y
    assert wg[0][0, 0] == pytest.approx(2.0 * resid * x, rel=1e-14)
    assert bg[0][0] == pytest.approx(2.0 * resid, rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_gradient_check_relu_away_from_kinks(seed):
    model = init_model(FnnTopology(3, (8, 4), 2, "relu"), seed=seed)
    x, y = kink_free_batch(model, n=6, seed=seed + 100)
    report = gradient_check(model, x, y, tolerance=1e-4)
    assert report.passed, report


@pytest.mark.parametrize("seed", range(5))
def test_gradient_check_tanh_tight_tolerance(seed):
    model = init_model(FnnTopology(3, (8, 4), 2, "tanh"), seed=seed)
    rng = np.random.default_rng(seed + 200)
    report = gradient_check(
        model, rng.normal(size=(6, 3)), rng.normal(size=(6, 2)), tolerance=1e-5
    )
    assert report.passed, report


@pytest.mark.parametrize("seed", range(3))
def test_gradient_check_sigmoid(seed):
    model = init_model(FnnTopology(2, (6,), 1, "sigmoid"), seed=seed)
    rng = np.random.default_rng(seed + 300)
    report = gradient_check(
        model, rng.normal(size=(5, 2)), rng.normal(size=(5, 1)), tolerance=1e-4
    )
    assert report.passed, report


def test_gradient_check_catches_corruption():
    model = init_model(FnnTopology(2, (6,), 1, "tanh"), seed=9)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(5, 1))
    wg, bg = backward(model, x, y)
    # scale the largest-magnitude weight gradient entry by 2
    layer = int(np.argmax([np.abs(g).max() for g in wg]))
    idx = np.unravel_index(np.argmax(np.abs(wg[layer])), wg[layer].shape)
    wg[layer][idx] *= 2.0
    report = gradient_check(model, x, y, analytic=(wg, bg))
    assert not report.passed
    assert report.worst_param.startswith(f"W{layer}")


# ------------------------------------------------------------------- scaler

def test_scaler_round_trip_and_constant_feature():
    data = np.array([[1.0, 5.0], [3.0, 5.0], [7.0, 5.0]])
    scaler = AffineScaler.fit(data)
    assert scaler.scale[1] == 1.0  # constant column stays invertible
    np.testing.assert_allclose(scaler.inverse(scaler.transform(data)), data, atol=1e-12)
    t = scaler.transform(data)
    np.testing.assert_allclose(t[:, 0].mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(t[:, 0].std(), 1.0, atol=1e-12)


def test_identity_scaler_is_noop():
    scaler = AffineScaler.identity(3)
    x = np.array([[4.0, -2.0, 0.5]])
    np.testing.assert_array_equal(scaler.transform(x), x)
    np.testing.assert_array_equal(scaler.inverse(x), x)


# ----------------------------------------------------------- initialization

def test_init_xavier_bounds_and_zero_biases():
    topo = FnnTopology(4, (32, 16), 2)
    model = init_model(topo, seed=0)
    dims = topo.layer_dims
    for w, b, fan_in, fan_out in zip(model.weights, model.biases, dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.1 * limit  # actually spread out, not zeros
        np.testing.assert_array_equal(b, 0.0)


def test_init_deterministic_per_seed():
    a = init_model(FnnTopology(3, (8,), 2), seed=7)
    b = init_model(FnnTopology(3, (8,), 2), seed=7)
    c = init_model(FnnTopology(3, (8,), 2), seed=8)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


# --------------------------------------------------------------- optimizers

def test_sgd_step():
    p = np.array([1.0, -2.0])
    _Sgd(lr=0.1, params=p).step(p, np.array([0.5, -1.0]))
    np.testing.assert_allclose(p, [0.95, -1.9], atol=1e-15)


def test_adam_matches_reference_implementation():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = np.array([1.0, -2.0, 0.5])
    ref = p.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    opt = _Adam(lr, p)
    rng = np.random.default_rng(1)
    for t in range(1, 6):
        g = rng.normal(size=3)
        opt.step(p, g.copy())
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(p, ref, atol=1e-14)


def test_adam_first_step_is_signed_learning_rate():
    # with zero state the first update is lr * sign(g) up to eps
    p = np.array([0.0])
    opt = _Adam(0.05, p)
    opt.step(p, np.array([3.0]))
    assert p[0] == pytest.approx(-0.05, rel=1e-6)


# ----------------------------------------------------------------- training

def test_train_fits_noiseless_linear_map():
    # relu(x) - relu(-x) represents the map exactly, so near-zero loss is attainable
    x = np.linspace(-1.0, 1.0, 60)[:, None]
    y = 2.0 * x + 1.0
    config = TrainConfig(epochs=50, batch_size=8, optimizer="adam",
                         learning_rate=0.05, early_stopping=False, seed=0)
    model, trace = train(x, y, FnnTopology(1, (4,), 1, "relu"), config)
    assert trace.train_losses[-1] < 1e-3  # scaled-space MSE
    assert len(trace.train_losses) == 50


_REFERENCE_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) * np.tanh(z)),
    "sigmoid": (
        masked_sigmoid,
        lambda z: masked_sigmoid(z) * (1.0 - masked_sigmoid(z)),
    ),
}


def reference_train(x, y, topology, config):
    """The training algorithm written out straight: per-layer parameter
    lists, derivatives recomputed from the pre-activations, the masked
    sigmoid, per-layer Adam/SGD updates and fancy-indexed batches.
    Returns (weights, biases, train_losses, val_losses)."""
    act, act_grad = _REFERENCE_ACTIVATIONS[topology.activation]
    n = x.shape[0]
    n_val = 0
    if config.early_stopping:
        n_val = max(1, int(math.floor(config.validation_fraction * n + 1e-9)))
    n_train = n - n_val
    x_scaler = AffineScaler.fit(x[:n_train])
    y_scaler = AffineScaler.fit(y[:n_train])
    xs, ys = x_scaler.transform(x[:n_train]), y_scaler.transform(y[:n_train])
    xv, yv = x_scaler.transform(x[n_train:]), y_scaler.transform(y[n_train:])
    init = init_model(topology, seed=config.seed)
    weights = [w.copy() for w in init.weights]
    biases = [b.copy() for b in init.biases]
    n_layers = len(weights)
    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0

    def run(xb):
        acts, pres, out = [xb], [], xb
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = out @ w + b
            pres.append(z)
            out = z if i == n_layers - 1 else act(z)
            acts.append(out)
        return acts, pres

    def mse(xb, yb):
        d = run(xb)[0][-1] - yb
        return float(np.mean(d * d))

    rng = np.random.default_rng(config.seed)
    train_losses, val_losses = [], []
    best_val, best, since = math.inf, None, 0
    for _ in range(config.epochs):
        order = rng.permutation(n_train)
        for lo in range(0, n_train, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            acts, pres = run(xs[batch])
            out = acts[-1]
            delta = 2.0 * (out - ys[batch]) / out.size
            wg, bg = [None] * n_layers, [None] * n_layers
            for i in range(n_layers - 1, -1, -1):
                wg[i] = acts[i].T @ delta
                bg[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * act_grad(pres[i - 1])
            if config.optimizer == "sgd":
                for p, g in zip(params, wg + bg):
                    p -= config.learning_rate * g
            else:
                t += 1
                for i, (p, g) in enumerate(zip(params, wg + bg)):
                    m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                    v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
                    m_hat = m[i] / (1.0 - 0.9**t)
                    v_hat = v[i] / (1.0 - 0.999**t)
                    p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        train_losses.append(mse(xs, ys))
        if not n_val:
            val_losses.append(None)
            continue
        val = mse(xv, yv)
        val_losses.append(val)
        if val < best_val:
            best_val, since = val, 0
            best = ([w.copy() for w in weights], [b.copy() for b in biases])
        else:
            since += 1
            if since >= config.patience:
                break
    if best is not None:
        weights, biases = best
    return weights, biases, train_losses, val_losses


@pytest.mark.parametrize("early_stopping", [True, False])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_train_bits_match_reference_trainer(activation, optimizer, early_stopping):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(83, 4))  # 67 or 83 training rows: a partial last batch
    y = np.column_stack([np.sin(x[:, 0]) + x[:, 1], x[:, 2] * x[:, 3]])
    y += rng.normal(0.0, 0.3, size=y.shape)
    topology = FnnTopology(4, (16, 8), 2, activation)
    config = TrainConfig(epochs=12, batch_size=8, optimizer=optimizer,
                         learning_rate=0.02, early_stopping=early_stopping,
                         patience=2, seed=5)
    model, trace = train(x, y, topology, config)
    weights, biases, train_losses, val_losses = reference_train(x, y, topology, config)
    for got, want in zip(model.weights + model.biases, weights + biases):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(trace.train_losses, train_losses)
    np.testing.assert_array_equal(np.array(trace.val_losses, dtype=object),
                                  np.array(val_losses, dtype=object))


def test_train_raises_named_error_when_loss_diverges():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 1))
    topology = FnnTopology(3, (8,), 1, "relu")
    # the second's epoch-1 loss is finite (8e227) but above DIVERGED_LOSS
    for lr, epoch in ((1e6, 1), (50.0, 1)):
        config = TrainConfig(epochs=5, optimizer="sgd", learning_rate=lr, seed=0)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingDivergedError, match=f"diverged at epoch {epoch}:"
        ):
            train(x, y, topology, config)
    assert issubclass(TrainingDivergedError, ValueError)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_saturating_activations_raise_when_training_diverges(activation):
    # bounded hidden units keep the loss finite for a while; the overflow
    # inside the epoch is what gives the divergence away (one row per step,
    # so it comes within epoch 1, before the loss bound is checked)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 1))
    topology = FnnTopology(3, (8,), 1, activation)
    config = TrainConfig(
        epochs=50, batch_size=1, optimizer="sgd", learning_rate=1e6,
        early_stopping=False, seed=0,
    )
    with pytest.raises(TrainingDivergedError, match=r"diverged at epoch \d+: overflow"):
        train(x, y, topology, config)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("lr", [10.0, 50.0, 1e3])
def test_finite_but_absurd_loss_is_divergence(activation, lr):
    # saturating units keep every number finite here, so only the loss
    # bound tells these runs from a fit; early stopping used to restore
    # epoch 1 and return silently
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 1))
    topology = FnnTopology(3, (8,), 1, activation)
    config = TrainConfig(epochs=50, optimizer="sgd", learning_rate=lr, patience=5, seed=0)
    with pytest.raises(TrainingDivergedError, match=r"diverged at epoch \d+: train loss"):
        train(x, y, topology, config)
    assert DIVERGED_LOSS == 1e6


def test_fit_divergence_prints_one_error_line_and_no_warnings(
    tmp_path, capfd, oficast_env
):
    # a child process, because pytest would collect the warnings in-process
    from oficast.cli import main

    data = tmp_path / "counts.csv"
    assert main(["synth", "--out", str(data), "--length", "2000", "--seed", "1"]) == 0
    capfd.readouterr()
    code = subprocess.run(
        [sys.executable, "-m", "oficast.cli", "fit", "--data", str(data),
         "--out", str(tmp_path / "bundle"), "--optimizer", "sgd", "--learning-rate", "50"],
        env=oficast_env,
    ).returncode
    assert code == 1
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: training diverged at epoch ")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(validation_fraction=1.0)


def test_train_deterministic_for_seed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=(50, 2))
    config = TrainConfig(epochs=8, seed=11)
    topo = FnnTopology(3, (6,), 2, "relu")
    m1, t1 = train(x, y, topo, config)
    m2, t2 = train(x, y, topo, config)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        np.testing.assert_array_equal(a, b)
    assert t1.train_losses == t2.train_losses
    assert t1.val_losses == t2.val_losses


def test_early_stopping_restores_best_epoch_parameters():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    y = rng.normal(size=(40, 1))  # pure noise: validation will stop improving
    config = TrainConfig(epochs=200, patience=3, seed=0)
    model, trace = train(x, y, FnnTopology(2, (16,), 1, "tanh"), config)
    assert trace.stopped_epoch < 200
    assert trace.best_epoch <= trace.stopped_epoch
    n_val = max(1, int(0.2 * 40))
    restored_val = training_loss(model, x[-n_val:], y[-n_val:])
    assert restored_val == min(v for v in trace.val_losses if v is not None)


def test_validation_slice_is_chronological_tail():
    # train on a ramp whose tail is far from its head: if the validation
    # split were shuffled, the val loss at epoch 1 would be near the train loss
    x = np.arange(50, dtype=float)[:, None]
    y = x.copy()
    config = TrainConfig(epochs=1, seed=0)
    model, trace = train(x, y, FnnTopology(1, (4,), 1, "tanh"), config)
    scaled_tail = model.input_scaler.transform(x[-10:])
    assert scaled_tail.min() > 1.0  # tail lies outside the fitted train range


def test_train_without_early_stopping_has_no_val_losses():
    x = np.linspace(0, 1, 20)[:, None]
    y = x * 3.0
    config = TrainConfig(epochs=4, early_stopping=False)
    _, trace = train(x, y, FnnTopology(1, (3,), 1), config)
    assert trace.val_losses == [None] * 4
    assert trace.best_epoch == 4


def test_train_warns_on_contradictory_constant_inputs():
    x = np.ones((10, 2))
    y = np.arange(10, dtype=float)[:, None]
    with pytest.warns(UserWarning, match="identical"):
        train(x, y, FnnTopology(2, (3,), 1), TrainConfig(epochs=1))


def test_train_rejects_length_mismatch():
    with pytest.raises(ValueError):
        train(np.zeros((5, 2)), np.zeros((4, 1)), FnnTopology(2, (3,), 1), TrainConfig())


def test_trained_scalers_come_from_train_slice_only():
    x = np.vstack([np.zeros((40, 1)), np.full((10, 1), 100.0)])
    y = np.vstack([np.zeros((40, 1)), np.full((10, 1), 100.0)])
    x[:40] = np.random.default_rng(0).normal(size=(40, 1))
    y[:40] = x[:40] * 2
    model, _ = train(x, y, FnnTopology(1, (3,), 1), TrainConfig(epochs=1, seed=0))
    # the held-out spike at 100 must not contaminate the fitted statistics
    assert model.input_scaler.mean[0] == pytest.approx(x[:40].mean(), abs=1e-12)


# -------------------------------------------------------------- persistence

@pytest.mark.parametrize("hidden", [(), (5,), (8, 3)])
def test_save_load_round_trip(tmp_path, hidden):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=(30, 1))
    model, _ = train(x, y, FnnTopology(2, hidden, 1, "sigmoid"), TrainConfig(epochs=2))
    path = tmp_path / "fnn.txt"
    save_fnn(model, path)
    loaded = load_fnn(path)
    assert loaded.topology == model.topology
    for a, b in zip(loaded.weights + loaded.biases, model.weights + model.biases):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(loaded.input_scaler.mean, model.input_scaler.mean)
    np.testing.assert_array_equal(loaded.target_scaler.scale, model.target_scaler.scale)
    xq = rng.normal(size=(4, 2))
    np.testing.assert_array_equal(forward(loaded, xq), forward(model, xq))


def test_load_rejects_wrong_tag(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(ValueError, match="oficast-fnn"):
        load_fnn(path)


def test_load_names_file_and_line_for_every_truncation(tmp_path):
    rng = np.random.default_rng(2)
    model, _ = train(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)),
                     FnnTopology(2, (3, 2), 1), TrainConfig(epochs=1))
    path = tmp_path / "fnn.txt"
    save_fnn(model, path)
    lines = path.read_text().splitlines()
    for keep in range(len(lines)):
        path.write_text("".join(line + "\n" for line in lines[:keep]))
        with pytest.raises(ValueError, match=r"fnn\.txt.*line %d\b" % (keep + 1)):
            load_fnn(path)


def test_load_names_line_of_non_numeric_token(tmp_path):
    model = init_model(FnnTopology(2, (3,), 1), seed=0)
    path = tmp_path / "fnn.txt"
    save_fnn(model, path)
    lines = path.read_text().splitlines()
    row = lines.index("layer 0 weight 2 3") + 2  # second weight row
    lines[row] = lines[row].replace(lines[row].split()[1], "abc")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"fnn\.txt: line %d: non-numeric" % (row + 1)):
        load_fnn(path)


def test_trace_csv_format(tmp_path):
    from oficast.neural_net import TrainingTrace

    trace = TrainingTrace(
        train_losses=[0.5, 0.25], val_losses=[0.6, None], stopped_epoch=2, best_epoch=1
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.6"
    assert lines[2] == "2,0.25,"  # missing validation stays empty, not NaN

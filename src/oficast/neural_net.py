"""From-scratch feedforward network for residual and imbalance regression.

Dense layers with a configurable hidden activation (relu, tanh, or
sigmoid), identity output, mean-squared-error loss, exact reverse-mode
gradients, and mini-batch SGD or Adam.  Everything is plain numpy; no
autograd framework is involved, which is why :func:`gradient_check` exists.

Inputs and targets are standardized internally: an affine scaler fitted on
the training slice maps features to zero mean and unit variance, and the
inverse target scaler is applied on the way out.  Raw order-count scales
would otherwise saturate the squashing activations and stall the default
learning rate.  ``forward`` always speaks raw units.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data_io
from .data_io import DataFormatError, ParamLines, _check_settings, _integer_rules, _quote
from .data_io import _seed_rule

FNN_FORMAT_TAG = "oficast-fnn v1"


def _relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def _sigmoid(x, out=None):
    """Logistic function without overflow, into ``out`` (which may be ``x``).

    With e = exp(-|x|) this is 1/(1+e) for x >= 0 and e/(1+e) for x < 0:
    the same operations on the same values as evaluating 1/(1+exp(-x)) on
    the non-negative entries and exp(x)/(1+exp(x)) on the rest, so the
    bits match that two-branch form exactly.  Besides ``out`` it allocates
    one scratch array for 1+e and a sign mask.
    """
    nonneg = x >= 0
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = np.add(1.0, e)
    # the numerator, 1 where x >= 0, else e: e <= 1 where x >= 0 and e >= 0
    # elsewhere, so max(e, nonneg) is it, NaN included
    np.maximum(e, nonneg, out=e)
    return np.divide(e, den, out=e)


#: activation -> (function, derivative written in terms of the function's
#: output a, which the forward pass already holds).  Each function takes
#: ``out=`` like a ufunc, so a layer activates in place.  ReLU's derivative
#: at exactly zero is taken as 0 (one-sided subgradient).
_ACTIVATION_FUNCS = {
    "relu": (_relu, lambda a: a > 0.0),
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
}
ACTIVATIONS = tuple(_ACTIVATION_FUNCS)


@dataclass(frozen=True)
class FnnTopology:
    """Layer widths and hidden activation; the output layer is linear."""

    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int
    activation: str = "relu"

    def __post_init__(self) -> None:
        _check_settings(
            *_integer_rules("input_dim", self.input_dim, 1),
            *_integer_rules("output_dim", self.output_dim, 1),
            # a width's two integer rules, each tested on every width
            *((name, rule, self.hidden_layers, lambda ws, ok=ok: all(map(ok, ws)))
              for name, rule, _, ok in _integer_rules("hidden layer widths", None, 1)),
            ("activation", f"be one of {ACTIVATIONS}", self.activation,
             _ACTIVATION_FUNCS.__contains__),
        )

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, self.output_dim)


@dataclass(frozen=True)
class AffineScaler:
    """Per-feature standardization x -> (x - mean) / scale, invertible."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, data: np.ndarray) -> "AffineScaler":
        data = np.asarray(data, dtype=float)
        mean = data.mean(axis=0)
        scale = data.std(axis=0)
        # constant features keep scale 1 so the transform stays invertible
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=mean, scale=scale)

    @classmethod
    def identity(cls, dim: int) -> "AffineScaler":
        return cls(mean=np.zeros(dim), scale=np.ones(dim))

    def transform(self, data: np.ndarray) -> np.ndarray:
        out = np.asarray(data, dtype=float) - self.mean
        out /= self.scale
        return out

    def inverse(self, data: np.ndarray) -> np.ndarray:
        out = np.asarray(data, dtype=float) * self.scale
        out += self.mean
        return out


@dataclass
class FnnModel:
    topology: FnnTopology
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_scaler: AffineScaler
    target_scaler: AffineScaler


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; defaults are the library's standard operating point."""

    epochs: int = 50
    batch_size: int = 8
    optimizer: str = "adam"
    learning_rate: float = 0.001
    early_stopping: bool = True
    patience: int = 5
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        rate = self.learning_rate
        _check_settings(
            *_integer_rules("epochs", self.epochs, 1),
            *_integer_rules("batch_size", self.batch_size, 1),
            ("learning_rate", "be finite", rate, math.isfinite),
            ("learning_rate", "be positive", rate, lambda r: r > 0),
            ("optimizer", "be 'adam' or 'sgd'", self.optimizer, OPTIMIZERS.__contains__),
            *_integer_rules("patience", self.patience, 1),
            ("validation_fraction", "lie in (0, 1)", self.validation_fraction,
             lambda f: 0.0 < f < 1.0),
            _seed_rule(self.seed),
        )


@dataclass
class TrainingTrace:
    """Per-epoch losses (scaled space); epochs are 1-based in exports."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float | None] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


class TrainingDivergedError(ValueError):
    """An epoch overflowed, or its loss is NaN or above DIVERGED_LOSS."""


def write_trace_csv(trace: TrainingTrace, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for i, (tr, va) in enumerate(zip(trace.train_losses, trace.val_losses), start=1):
            va_txt = "" if va is None else repr(va)
            fh.write(f"{i},{tr!r},{va_txt}\n")


def init_model(topology: FnnTopology, seed: int = 0) -> FnnModel:
    """Xavier-uniform weights in +-sqrt(6 / (fan_in + fan_out)), zero biases,
    identity scalers.  Deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    dims = topology.layer_dims
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return FnnModel(
        topology=topology,
        weights=weights,
        biases=biases,
        input_scaler=AffineScaler.identity(topology.input_dim),
        target_scaler=AffineScaler.identity(topology.output_dim),
    )


def _layer_views(flat: np.ndarray, dims: tuple[int, ...]):
    """(weights, biases): per-layer views into one flat vector laid out
    W0, b0, W1, b1, ..., with as many entries as the layers' parameters."""
    weights, biases = [], []
    lo = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        hi = lo + fan_in * fan_out
        weights.append(flat[lo:hi].reshape(fan_in, fan_out))
        biases.append(flat[hi : hi + fan_out])
        lo = hi + fan_out
    return weights, biases


def _layers(model: FnnModel, a: np.ndarray):
    """Yield each layer's output in scaled space for the scaled input ``a``.

    A layer is one matmul over all rows, the bias added in place and the
    hidden activation applied in place.  The loop drops its reference to a
    layer's input once the output exists, so a caller that keeps only the
    latest output holds at most two layers at a time.
    """
    act, _ = _ACTIVATION_FUNCS[model.topology.activation]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w
        a += b
        if i != last:  # identity output layer
            act(a, out=a)
        yield a


def _forward_scaled(model: FnnModel, xs: np.ndarray):
    """Forward pass in scaled space; returns the per-layer activations.
    activations[0] is the input, activations[-1] the network output."""
    return [xs, *_layers(model, xs)]


def forward(model: FnnModel, inputs: np.ndarray) -> np.ndarray:
    """Predict in raw units: scale inputs, run the network, invert the
    target scaler.  Accepts a single sample (d,) or a batch (n, d).

    Rows run :data:`~oficast.data_io.BLOCK_ROWS` at a time into one output
    array, so the memory held is that of the inputs, the output and one
    block's layers.
    A batch of at most one block gives the bits of one pass over all rows;
    a longer one may differ from that in the last bits, where the BLAS
    picks a kernel by matrix height.
    """
    x = np.asarray(inputs, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.topology.input_dim:
        raise ValueError(
            f"expected inputs of width {model.topology.input_dim}, got {x.shape[1]}"
        )
    out = np.empty((len(x), model.topology.output_dim))
    size = data_io.BLOCK_ROWS
    for lo in range(0, len(x), size):
        for a in _layers(model, model.input_scaler.transform(x[lo : lo + size])):
            pass  # only the latest layer is kept; the scaled block goes after the first
        out[lo : lo + size] = model.target_scaler.inverse(a)
    return out[0] if single else out


def loss(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over every output element."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("empty batch")
    diff = p - t
    return float(np.mean(diff * diff))


def _scaled_batch(model: FnnModel, inputs, targets):
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    return model.input_scaler.transform(x), model.target_scaler.transform(y)


def training_loss(model: FnnModel, inputs, targets) -> float:
    """The objective the optimizer sees: MSE in scaled space."""
    xs, ys = _scaled_batch(model, inputs, targets)
    return loss(_forward_scaled(model, xs)[-1], ys)


def _backward_scaled(model: FnnModel, xs, ys, weight_grads, bias_grads) -> None:
    """Write the gradients of the scaled-space MSE on one batch into
    ``weight_grads``/``bias_grads`` (arrays shaped like the parameters)."""
    _, act_grad = _ACTIVATION_FUNCS[model.topology.activation]
    activations = _forward_scaled(model, xs)
    out = activations[-1]
    # d(MSE)/d(out); the mean runs over batch * output_dim elements
    delta = 2.0 * (out - ys) / out.size
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=weight_grads[i])
        delta.sum(axis=0, out=bias_grads[i])
        if i > 0:
            delta = (delta @ model.weights[i].T) * act_grad(activations[i])


def backward(model: FnnModel, inputs, targets):
    """Exact gradients of :func:`training_loss` w.r.t. every weight and bias.

    Returns (weight_grads, bias_grads) shaped like the parameter lists.
    """
    xs, ys = _scaled_batch(model, inputs, targets)
    n_params = sum(w.size + b.size for w, b in zip(model.weights, model.biases))
    weight_grads, bias_grads = _layer_views(np.empty(n_params), model.topology.layer_dims)
    _backward_scaled(model, xs, ys, weight_grads, bias_grads)
    return weight_grads, bias_grads


class _Sgd:
    """Plain gradient descent on one flat parameter vector, in place."""

    def __init__(self, lr, params):
        self.lr = lr
        self._update = np.empty_like(params)

    def step(self, params, grads):
        np.multiply(grads, self.lr, out=self._update)
        params -= self._update


class _Adam:
    """Adam (Kingma & Ba 2015) on one flat parameter vector, in place.

    Per element, in this order: m = b1*m + (1-b1)*g;
    v = b2*v + ((1-b2)*g)*g; p -= (lr*(m/(1-b1**t))) / (sqrt(v/(1-b2**t)) + eps).
    Scratch buffers are allocated once, so a step allocates nothing.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr, params):
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        np.multiply(m, self.beta1, out=m)
        np.multiply(grads, 1.0 - self.beta1, out=num)
        np.add(m, num, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(grads, 1.0 - self.beta2, out=num)
        np.multiply(num, grads, out=num)
        np.add(v, num, out=v)
        np.divide(v, 1.0 - self.beta2**self.t, out=den)
        np.sqrt(den, out=den)
        np.add(den, self.eps, out=den)
        np.divide(m, 1.0 - self.beta1**self.t, out=num)
        np.multiply(num, self.lr, out=num)
        np.divide(num, den, out=num)
        params -= num


_OPTIMIZERS = {"adam": _Adam, "sgd": _Sgd}
OPTIMIZERS = tuple(_OPTIMIZERS)

#: Largest epoch loss of a run that has not diverged.  Losses are MSE on
#: standardised targets, where a sane fit is O(1).
DIVERGED_LOSS = 1e6


def train(inputs, targets, topology: FnnTopology, config: TrainConfig):
    """Mini-batch training; returns (FnnModel, TrainingTrace).

    The batch order reshuffles every epoch from the config seed.  With
    early stopping on, the chronologically last ``validation_fraction`` of
    the samples is held out, training stops after ``patience`` epochs
    without validation improvement, and the best-epoch parameters are
    restored.  Scalers are fitted on the training slice only.  The whole
    procedure is a pure function of (data, topology, config).

    The returned model's weights and biases are views into one flat
    parameter vector.  An epoch that overflows, or ends with a training or
    validation loss that is NaN or above :data:`DIVERGED_LOSS`, raises
    :class:`TrainingDivergedError`.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"inputs/targets length mismatch: {n} vs {y.shape[0]}")
    if n < 1:
        raise ValueError("no training samples")
    if x.shape[1] != topology.input_dim or y.shape[1] != topology.output_dim:
        raise ValueError(
            f"data shaped {x.shape}/{y.shape} does not match topology "
            f"{topology.input_dim}->{topology.output_dim}"
        )

    if config.early_stopping:
        if n < 2:
            raise ValueError("early stopping needs at least 2 samples")
        n_val = max(1, data_io.split_row(config.validation_fraction, n))
        n_train = n - n_val
        if n_train < 1:
            raise ValueError(
                f"validation_fraction={config.validation_fraction} leaves no training rows"
            )
    else:
        n_train = n
        n_val = 0
    x_train, y_train = x[:n_train], y[:n_train]
    x_val, y_val = x[n_train:], y[n_train:]

    if n_train > 1 and np.all(x_train == x_train[0]) and not np.all(y_train == y_train[0]):
        warnings.warn(
            "all training inputs are identical but targets conflict; "
            "the fit can only learn the mean target",
            stacklevel=2,
        )

    model = init_model(topology, seed=config.seed)
    model.input_scaler = AffineScaler.fit(x_train)
    model.target_scaler = AffineScaler.fit(y_train)
    xs = model.input_scaler.transform(x_train)
    ys = model.target_scaler.transform(y_train)
    xs_val = model.input_scaler.transform(x_val) if n_val else None
    ys_val = model.target_scaler.transform(y_val) if n_val else None

    dims = topology.layer_dims
    flat = np.concatenate([a.ravel() for wb in zip(model.weights, model.biases) for a in wb])
    model.weights, model.biases = _layer_views(flat, dims)
    grad = np.empty_like(flat)
    weight_grads, bias_grads = _layer_views(grad, dims)
    optimizer = _OPTIMIZERS[config.optimizer](config.learning_rate, flat)

    rng = np.random.default_rng(config.seed)
    trace = TrainingTrace()
    best_val = math.inf
    best_flat = None
    epochs_since_best = 0

    # overflow or an invalid operation anywhere in an epoch, or a loss at its
    # end that is NaN or above DIVERGED_LOSS, means the run has diverged;
    # saturating activations can keep every number finite meanwhile
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(1, config.epochs + 1):
                order = rng.permutation(n_train)
                xs_epoch, ys_epoch = xs[order], ys[order]
                for lo in range(0, n_train, config.batch_size):
                    hi = lo + config.batch_size  # last partial batch kept
                    _backward_scaled(
                        model, xs_epoch[lo:hi], ys_epoch[lo:hi], weight_grads, bias_grads
                    )
                    optimizer.step(flat, grad)

                train_loss = loss(_forward_scaled(model, xs)[-1], ys)
                if n_val:
                    val_loss = loss(_forward_scaled(model, xs_val)[-1], ys_val)
                else:
                    val_loss = None
                if not train_loss <= DIVERGED_LOSS or (n_val and not val_loss <= DIVERGED_LOSS):
                    raise FloatingPointError(
                        f"train loss {train_loss!r}, validation loss {val_loss!r}"
                    )
                trace.train_losses.append(train_loss)
                trace.val_losses.append(val_loss)
                trace.stopped_epoch = epoch

                if config.early_stopping:
                    if val_loss < best_val:
                        best_val = val_loss
                        trace.best_epoch = epoch
                        best_flat = flat.copy()
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                        if epochs_since_best >= config.patience:
                            break
                else:
                    trace.best_epoch = epoch
    except FloatingPointError as exc:
        raise TrainingDivergedError(
            f"training diverged at epoch {epoch}: {exc}; lower the learning rate"
        ) from None

    if best_flat is not None:
        flat[:] = best_flat
    return model, trace


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    worst_param: str
    passed: bool


def gradient_check(
    model: FnnModel,
    inputs,
    targets,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    analytic=None,
) -> GradientCheckReport:
    """Compare :func:`backward` against central finite differences.

    Each parameter entry is perturbed by +-step, the training loss is
    re-evaluated, and the relative error against the analytic gradient is
    recorded; the check passes when the worst entry beats ``tolerance``.
    ``analytic`` overrides the gradients under test (used to prove the
    check catches corrupted values).  Meaningful for relu only away from
    kinks, where the loss is differentiable.
    """
    if analytic is None:
        analytic = backward(model, inputs, targets)
    weight_grads, bias_grads = analytic
    max_rel = 0.0
    worst = ""
    for kind, arrays, grads in (
        ("W", model.weights, weight_grads),
        ("b", model.biases, bias_grads),
    ):
        for layer, (arr, grad) in enumerate(zip(arrays, grads)):
            flat = arr.ravel()
            gflat = np.asarray(grad).ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = training_loss(model, inputs, targets)
                flat[idx] = orig - step
                down = training_loss(model, inputs, targets)
                flat[idx] = orig
                numeric = (up - down) / (2.0 * step)
                a = float(gflat[idx])
                denom = max(abs(a), abs(numeric), 1e-8)
                rel = abs(a - numeric) / denom
                if rel > max_rel:
                    max_rel = rel
                    worst = f"{kind}{layer}[{idx}]"
    return GradientCheckReport(
        max_rel_error=max_rel, worst_param=worst, passed=max_rel < tolerance
    )


def save_fnn(model: FnnModel, path: str | Path) -> None:
    """Versioned text persistence at full precision (repr round-trip)."""
    t = model.topology
    lines = [FNN_FORMAT_TAG]
    lines.append(f"input_dim: {t.input_dim}")
    lines.append("hidden: " + ",".join(str(w) for w in t.hidden_layers))
    lines.append(f"output_dim: {t.output_dim}")
    lines.append(f"activation: {t.activation}")
    for name, scaler in (
        ("input_scaler", model.input_scaler),
        ("target_scaler", model.target_scaler),
    ):
        lines.append(f"{name}_mean: " + " ".join(repr(float(v)) for v in scaler.mean))
        lines.append(f"{name}_scale: " + " ".join(repr(float(v)) for v in scaler.scale))
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"layer {i} weight {w.shape[0]} {w.shape[1]}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(f"layer {i} bias {b.shape[0]}")
        lines.append(" ".join(repr(float(v)) for v in b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_fnn(path: str | Path) -> FnnModel:
    """Inverse of :func:`save_fnn`.  A truncated file, a malformed line, a
    non-numeric or non-finite token or a scale that is not positive raises
    DataFormatError naming the file and the line."""
    lines = ParamLines(path)
    line, bad, expect, numbers = lines.line, lines.bad, lines.expect, lines.numbers
    if line(0) != FNN_FORMAT_TAG:
        raise bad(0, f"not a {FNN_FORMAT_TAG} file")
    (input_dim,) = numbers(1, expect(1, "input_dim"), int, count=1)
    hidden = tuple(numbers(2, expect(2, "hidden"), int, sep=","))
    (output_dim,) = numbers(3, expect(3, "output_dim"), int, count=1)
    try:
        topology = FnnTopology(
            input_dim=input_dim,
            hidden_layers=hidden,
            output_dim=output_dim,
            activation=expect(4, "activation"),
        )
    except ValueError as exc:
        raise DataFormatError(f"lines 2-5: {exc}", path=lines.path) from None
    scalers = {}
    row = 5
    for name, dim in (("input_scaler", input_dim), ("target_scaler", output_dim)):
        mean = numbers(row, expect(row, f"{name}_mean"), count=dim)
        scale = numbers(row + 1, expect(row + 1, f"{name}_scale"), count=dim)
        for value in scale:
            if value <= 0:
                raise bad(row + 1, f"scale must be positive, got {_quote(str(value))}")
        scalers[name] = AffineScaler(mean=np.array(mean), scale=np.array(scale))
        row += 2
    dims = topology.layer_dims
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        if line(row) != f"layer {i} weight {fan_in} {fan_out}":
            raise bad(row, f"bad layer header {_quote(line(row))}")
        rows = [numbers(row + 1 + r, line(row + 1 + r), count=fan_out) for r in range(fan_in)]
        weights.append(np.array(rows))
        row += 1 + fan_in
        if line(row) != f"layer {i} bias {fan_out}":
            raise bad(row, f"bad bias header {_quote(line(row))}")
        biases.append(np.array(numbers(row + 1, line(row + 1), count=fan_out)))
        row += 2
    return FnnModel(
        topology=topology,
        weights=weights,
        biases=biases,
        input_scaler=scalers["input_scaler"],
        target_scaler=scalers["target_scaler"],
    )

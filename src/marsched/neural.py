"""Minimal feed-forward networks on numpy: forward, reverse-mode gradients,
Adam, and JSON serialization with exact binary arrays.

Tensors are plain numpy float64 arrays. Batches are row-major: input of
shape (batch, input_dim); a single sample is a batch of one. Format
versioning happens at the model-file level, not per network.

A layer's forward step (``_layer``) allocates one array, the activation,
and works in it in place; ``forward`` and ``predict`` both run it. The
``ForwardCache`` holds only the input and those activations, and
``backward`` consumes it: it computes each hidden tanh derivative in the
cached activation's own buffer, skips the multiply for identity layers
and drops every cached array once it has been read, so the gradient pass
adds about one activation-sized array to what the cache already holds.
An actor-critic update over n steps of hidden width h then peaks at about
four n x h arrays.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ModelFormatError, TrainingDiverged

ACTIVATIONS = ("tanh", "identity")


@dataclass
class Layer:
    weights: np.ndarray     # (fan_in, fan_out)
    bias: np.ndarray        # (fan_out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")


@dataclass
class Network:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        if len(params) != 2 * len(self.layers):
            raise ContractError("parameter list does not match network shape")
        for i, layer in enumerate(self.layers):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != layer.weights.shape or b.shape != layer.bias.shape:
                raise ContractError("parameter shapes do not match network")
            layer.weights = w.copy()
            layer.bias = b.copy()

    def copy_parameters(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]


def init_network(dims: list[int],
                 rng: np.random.Generator | None = None) -> Network:
    """Glorot-uniform init: weights ~ U(+-sqrt(6/(fan_in+fan_out))), zero
    bias; tanh hidden layers and an identity output layer."""
    if len(dims) < 2:
        raise ContractError("a network needs at least input and output dims")
    rng = rng if rng is not None else np.random.default_rng(0)
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        act = "identity" if i == len(dims) - 2 else "tanh"
        layers.append(Layer(weights=w, bias=b, activation=act))
    return Network(layers=layers)


def _layer(layer: Layer, h: np.ndarray) -> np.ndarray:
    """The layer's activation of the 2-D batch ``h``, in one new array:
    ``h @ W``, then ``+ b`` and the activation in place."""
    z = h @ layer.weights
    z += layer.bias
    if layer.activation == "tanh":
        np.tanh(z, out=z)
    return z


@dataclass
class ForwardCache:
    net: Network
    # the input, then each layer's activation; ``backward`` empties it
    arrays: list[np.ndarray]


def forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ContractError(
            f"input of shape {x.shape} does not match network input dim "
            f"{net.input_dim}")
    arrays = [x]
    for layer in net.layers:
        arrays.append(_layer(layer, arrays[-1]))
    return arrays[-1], ForwardCache(net=net, arrays=arrays)


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """``forward``'s output for a 2-D batch of the network's input width,
    by the same layer steps, without the checks and without the cache that
    only ``backward`` reads."""
    for layer in net.layers:
        x = _layer(layer, x)
    return x


def backward(net: Network, cache: ForwardCache,
             dout: np.ndarray) -> list[np.ndarray]:
    """Gradients in net.parameters() order for upstream gradient dout.

    Consumes ``cache``: a hidden layer's tanh derivative (1 - a*a) is
    computed in its cached activation's buffer, every cached array is
    dropped once read, and a second call with the same cache raises
    ContractError. ``forward``'s output, which the caller holds, is read
    and never written. The arithmetic is the out-of-place
    ``delta * (1 - a*a)``'s, so the gradients are the same bits."""
    if cache.net is not net:
        raise ContractError("cache does not belong to this network")
    arrays = cache.arrays
    if not arrays:
        raise ContractError("forward cache already consumed by backward")
    dout = np.asarray(dout, dtype=float)
    if dout.shape != arrays[-1].shape:
        raise ContractError(
            f"output gradient shape {dout.shape} does not match forward "
            f"output {arrays[-1].shape}")
    last = len(net.layers) - 1
    grads: list[np.ndarray] = [None] * (2 * len(net.layers))
    delta = dout
    for i in range(last, -1, -1):
        layer = net.layers[i]
        a = arrays.pop()
        if layer.activation == "tanh":
            a = np.multiply(a, a, out=None if i == last else a)
            np.subtract(1.0, a, out=a)
            delta = np.multiply(delta, a, out=a)
        del a       # only delta may keep this buffer
        grads[2 * i] = arrays[-1].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ layer.weights.T
    arrays.clear()
    return grads


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis; -inf logits map to probability 0."""
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


@dataclass
class AdamState:
    alpha: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], alpha: float = 3e-4,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> "AdamState":
        return cls(alpha=alpha, beta1=beta1, beta2=beta2, eps=eps, t=0,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])

    def copy(self) -> "AdamState":
        return AdamState(alpha=self.alpha, beta1=self.beta1, beta2=self.beta2,
                         eps=self.eps, t=self.t,
                         m=[a.copy() for a in self.m],
                         v=[a.copy() for a in self.v])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState) -> list[np.ndarray]:
    """One Adam update (minimization); returns new parameter arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ContractError("params, grads, and Adam state lengths differ")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged("nonfinite gradient in Adam step")
    state.t += 1
    t = state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1 - state.beta2) * (g * g)
        m_hat = state.m[i] / (1 - state.beta1 ** t)
        v_hat = state.v[i] / (1 - state.beta2 ** t)
        out.append(p - state.alpha * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


def apply_adam(net: Network, grads: list[np.ndarray], state: AdamState) -> None:
    net.set_parameters(adam_step(net.parameters(), grads, state))


# -- serialization -------------------------------------------------------
# An array is stored as its shape and the base64 of its little-endian
# float64 bytes, so every bit round-trips; that is what makes version
# rollback and resume bit-exact.

def encode_array(a: np.ndarray) -> dict:
    raw = np.asarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape),
            "data": base64.b64encode(raw).decode("ascii")}


def decode_array(d) -> np.ndarray:
    """The array that ``encode_array`` gave ``d``; ModelFormatError for
    anything else."""
    if not isinstance(d, dict) or d.keys() != {"shape", "data"}:
        raise ModelFormatError(
            f"expected an encoded array (shape and data), got "
            f"{type(d).__name__}")
    shape, data = d["shape"], d["data"]
    if not isinstance(shape, list) \
            or not all(type(n) is int and n >= 0 for n in shape):
        raise ModelFormatError(
            f"array shape {shape!r} is not a list of non-negative ints")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"array data is not base64 ({exc})") from exc
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ModelFormatError(
            f"array data holds {len(raw)} bytes, shape {shape} needs {need}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)


def net_to_dict(net: Network) -> dict:
    return {
        "layers": [
            {"weights": encode_array(layer.weights),
             "bias": encode_array(layer.bias),
             "activation": layer.activation}
            for layer in net.layers
        ]
    }


def net_from_dict(d: dict, decode) -> Network:
    """The network of a ``net_to_dict`` payload. ``decode`` reads each
    array: ``decode_array`` for what ``net_to_dict`` writes, or the reader
    of an older model file's arrays."""
    try:
        layers = [Layer(weights=decode(ld["weights"]),
                        bias=decode(ld["bias"]),
                        activation=ld["activation"])
                  for ld in d["layers"]]
    except (KeyError, TypeError, ContractError) as exc:
        raise ModelFormatError(f"bad network payload: {exc}") from exc
    return Network(layers=layers)


def adam_to_dict(state: AdamState) -> dict:
    return {
        "alpha": state.alpha, "beta1": state.beta1, "beta2": state.beta2,
        "eps": state.eps, "t": state.t,
        "m": [encode_array(a) for a in state.m],
        "v": [encode_array(a) for a in state.v],
    }


def adam_from_dict(d: dict, decode) -> AdamState:
    try:
        return AdamState(alpha=d["alpha"], beta1=d["beta1"], beta2=d["beta2"],
                         eps=d["eps"], t=d["t"],
                         m=[decode(a) for a in d["m"]],
                         v=[decode(a) for a in d["v"]])
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"bad Adam payload: {exc}") from exc

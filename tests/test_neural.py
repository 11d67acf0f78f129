"""Gradient correctness by central finite differences, Adam against its
closed form and its out-of-place oracle, and bit-exact serialization."""

import json

import numpy as np
import pytest

from helpers import oracle_apply_adam, oracle_backward, oracle_forward
from marsched import agent as agent_module
from marsched.agent import (EpisodeTrajectory, Hyperparameters,
                            actor_critic_step, new_model)
from marsched.errors import ContractError, ModelFormatError
from marsched.neural import (ADAM_SETTINGS, AdamState, Layer, Network,
                             adam_from_dict, adam_to_dict, apply_adam,
                             backward, decode_array, encode_array, forward,
                             init_network, net_from_dict, net_to_dict,
                             predict, softmax)


def numeric_gradients(net, x, dout, h=1e-5):
    """Central differences of loss(p) = sum(forward(x) * dout) per parameter."""
    def loss():
        out, _ = forward(net, x)
        return float(np.sum(out * dout))

    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss()
            flat[i] = keep - h
            down = loss()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def relative_error(a, b):
    num = np.linalg.norm(a - b)
    den = np.linalg.norm(a) + np.linalg.norm(b)
    return num / den if den > 0 else 0.0


def test_gradient_check_20_networks():
    rng = np.random.default_rng(123)
    for case in range(20):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        net = init_network(dims, rng=rng)
        x = rng.normal(size=(1, dims[0]))
        dout = rng.normal(size=(1, dims[-1]))
        out, cache = forward(net, x)
        analytic = backward(net, cache, dout)
        numeric = numeric_gradients(net, x, dout, h=1e-5)
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) < 1e-4, f"case {case}"


def test_gradient_check_batched_input():
    rng = np.random.default_rng(5)
    net = init_network([4, 8, 3], rng=rng)
    x = rng.normal(size=(6, 4))
    dout = rng.normal(size=(6, 3))
    _, cache = forward(net, x)
    analytic = backward(net, cache, dout)
    numeric = numeric_gradients(net, x, dout)
    for a, n in zip(analytic, numeric):
        assert relative_error(a, n) < 1e-4


def test_forward_shapes_and_validation():
    net = init_network([3, 5, 2], rng=np.random.default_rng(0))
    out1, _ = forward(net, np.zeros((1, 3)))
    assert out1.shape == (1, 2)
    out2, _ = forward(net, np.zeros((4, 3)))
    assert out2.shape == (4, 2)
    with pytest.raises(ContractError):
        forward(net, np.zeros((4, 4)))
    with pytest.raises(ContractError):      # a sample is a batch of one
        forward(net, np.zeros(3))
    with pytest.raises(ContractError):
        init_network([3])


def test_backward_rejects_foreign_cache():
    rng = np.random.default_rng(0)
    a = init_network([2, 2], rng=rng)
    b = init_network([2, 2], rng=rng)
    _, cache = forward(a, np.zeros((1, 2)))
    with pytest.raises(ContractError):
        backward(b, cache, np.zeros((1, 2)))


def random_network(rng, dims):
    """A network of random weights and biases in which every layer, the
    last one too, is tanh or identity at random."""
    return Network([Layer(rng.normal(size=(i, o)), rng.normal(size=o),
                          str(rng.choice(["tanh", "identity"])))
                    for i, o in zip(dims, dims[1:])])


@pytest.mark.parametrize("seed", range(8))
def test_forward_and_backward_equal_out_of_place_oracle(seed):
    # the in-place layer step and the consuming backward give the same bits
    # as h @ W + b, activation, delta * (1 - a*a), each in a new array;
    # the caller's input, output and upstream gradient are left untouched
    rng = np.random.default_rng(seed)
    for rows in (1, 2, 17, 300):
        dims = [int(d) for d in rng.integers(1, 70, size=rng.integers(2, 6))]
        net = random_network(rng, dims)
        x = rng.random((rows, dims[0]))
        dout = rng.normal(size=(rows, dims[-1]))
        kept = x.copy(), dout.copy()
        want, cache = oracle_forward(net, x)
        out, mine = forward(net, x)
        assert out.tobytes() == want.tobytes()
        assert predict(net, x).tobytes() == want.tobytes()
        grads = backward(net, mine, dout)
        for got, exp in zip(grads, oracle_backward(net, cache, dout),
                            strict=True):
            assert got.shape == exp.shape and got.tobytes() == exp.tobytes()
        assert out.tobytes() == want.tobytes()
        assert x.tobytes() == kept[0].tobytes()
        assert dout.tobytes() == kept[1].tobytes()


def test_backward_consumes_its_cache():
    net = init_network([3, 5, 4, 2], rng=np.random.default_rng(0))
    out, cache = forward(net, np.ones((4, 3)))
    # a rejected upstream gradient leaves the cache whole
    with pytest.raises(ContractError):
        backward(net, cache, np.zeros((4, 3)))
    backward(net, cache, np.ones_like(out))
    assert cache.arrays == []
    with pytest.raises(ContractError, match="consumed"):
        backward(net, cache, np.ones_like(out))


def test_glorot_bounds_and_zero_bias():
    net = init_network([100, 50], rng=np.random.default_rng(1))
    w = net.layers[0].weights
    bound = np.sqrt(6.0 / 150)
    assert np.all(np.abs(w) <= bound)
    assert np.std(w) > 0
    assert np.all(net.layers[0].bias == 0)


def test_softmax_properties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        logits = rng.normal(scale=10, size=int(rng.integers(2, 9)))
        p = softmax(logits)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)
    # -inf logits get exactly zero probability
    p = softmax(np.array([1.0, -np.inf, 2.0]))
    assert p[1] == 0.0
    assert abs(p.sum() - 1.0) < 1e-12
    # invariance under shifts
    a = softmax(np.array([1.0, 2.0, 3.0]))
    b = softmax(np.array([101.0, 102.0, 103.0]))
    assert np.allclose(a, b, atol=1e-15)


def one_layer(weights):
    """A network whose only parameters are ``weights`` (one row) and a
    zero bias."""
    w = np.array([weights], dtype=float)
    return Network([Layer(w, np.zeros(w.shape[1]), "identity")])


def test_adam_single_step_closed_form():
    # with fresh moments one step reduces to p - alpha * g/|g| elementwise
    net = one_layer([1.0, -2.0, 3.0])
    g = [np.array([[0.5, -0.25, 0.0]]), np.zeros(3)]
    state = AdamState.for_params(net.parameters())
    apply_adam(net, g, state, 0.1)
    expect = np.array([[1.0, -2.0, 3.0]]) - 0.1 * g[0] / (np.abs(g[0]) + 1e-8)
    assert np.allclose(net.layers[0].weights, expect, atol=1e-12)
    assert np.array_equal(net.layers[0].bias, np.zeros(3))
    assert state.t == 1


def test_adam_two_steps_match_hand_rollout():
    alpha, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    assert ADAM_SETTINGS == {"beta1": b1, "beta2": b2, "eps": eps}
    net = one_layer([0.3])
    p = 0.3
    state = AdamState.for_params(net.parameters())
    m = v = 0.0
    for t, g in enumerate([0.2, -0.4], start=1):
        apply_adam(net, [np.array([[g]]), np.zeros(1)], state, alpha)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - alpha * m_hat / (np.sqrt(v_hat) + eps)
        assert np.allclose(net.layers[0].weights, p, atol=1e-15)
        assert state.t == t


def test_apply_adam_equals_out_of_place_oracle():
    # four steps of the default actor (66-64-64-17), gradients of mixed
    # scales with zeros, negative zeros and subnormals among them; each
    # step must give the oracle's bits in every parameter and moment
    net = new_model(Hyperparameters()).actor
    assert [l.weights.shape for l in net.layers] == [(66, 64), (64, 64),
                                                     (64, 17)]
    oracle = Network([Layer(l.weights.copy(), l.bias.copy(), l.activation)
                      for l in net.layers])
    state = AdamState.for_params(net.parameters())
    want = AdamState.for_params(oracle.parameters())
    rng = np.random.default_rng(31)
    for step in range(4):
        grads = []
        for p in net.parameters():
            g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3, p.shape)
            g.reshape(-1)[:3] = [0.0, -0.0, 5e-324]
            grads.append(g)
        kept = [g.copy() for g in grads]
        apply_adam(net, grads, state, 1e-3)
        oracle_apply_adam(oracle, grads, want, 1e-3)
        assert state.t == want.t == step + 1
        for got, expect in zip(net.parameters() + state.m + state.v,
                               oracle.parameters() + want.m + want.v):
            assert got.tobytes() == expect.tobytes()
        assert all(g.tobytes() == k.tobytes() for g, k in zip(grads, kept))


def test_adam_rejects_nonfinite_gradient(monkeypatch):
    # the update refuses a nonfinite gradient before Adam writes anything
    hyper = Hyperparameters(slots=2, hidden=(4,), seed=5)
    model = new_model(hyper)

    def poisoned(model, traj, hyper):
        actor = [np.zeros_like(p) for p in model.actor.parameters()]
        actor[1][0] = np.nan
        return actor, [np.zeros_like(p) for p in model.critic.parameters()], \
            {"delta_mean": 0.0, "entropy": 0.0}

    def no_step(*args):
        raise AssertionError("Adam step on a nonfinite gradient")

    monkeypatch.setattr(agent_module, "episode_gradients", poisoned)
    monkeypatch.setattr(agent_module.neural, "apply_adam", no_step)
    before = model.snapshot()
    assert actor_critic_step(model, [EpisodeTrajectory()], hyper)["aborted"]
    assert model.actor_adam.t == model.critic_adam.t == 0
    for got, kept in zip(model.actor.parameters() + model.actor_adam.m
                         + model.actor_adam.v,
                         before["actor"] + before["actor_adam"].m
                         + before["actor_adam"].v):
        assert got.tobytes() == kept.tobytes()


def test_apply_adam_moves_network():
    net = init_network([2, 2], rng=np.random.default_rng(3))
    state = AdamState.for_params(net.parameters())
    before = net.copy_parameters()
    grads = [np.ones_like(p) for p in net.parameters()]
    apply_adam(net, grads, state, 0.05)
    after = net.parameters()
    assert all(not np.array_equal(a, b) for a, b in zip(before, after))


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(9)
    net = init_network([5, 7, 3], rng=rng)
    state = AdamState.for_params(net.parameters())
    apply_adam(net, [rng.normal(size=p.shape) for p in net.parameters()],
               state, 1e-3)

    blob = json.dumps({"net": net_to_dict(net),
                       "adam": adam_to_dict(state, 1e-3)})
    loaded = json.loads(blob)
    assert {k: loaded["adam"][k] for k in ("alpha", "beta1", "beta2", "eps")} \
        == {"alpha": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    net2 = net_from_dict(loaded["net"], decode_array)
    adam2 = adam_from_dict(loaded["adam"], decode_array, 1e-3, "adam")

    for a, b in zip(net.parameters(), net2.parameters()):
        assert a.tobytes() == b.tobytes()  # bit-exact via the f8 bytes
    assert adam2.t == state.t
    for a, b in zip(state.m, adam2.m):
        assert np.array_equal(a, b)
    for a, b in zip(state.v, adam2.v):
        assert np.array_equal(a, b)
    out1, _ = forward(net, np.ones((1, 5)))
    out2, _ = forward(net2, np.ones((1, 5)))
    assert np.array_equal(out1, out2)


def test_malformed_payloads_rejected():
    with pytest.raises(ModelFormatError):
        net_from_dict({"layers": [{"weights": [[0.0]]}]},   # missing keys
                      decode_array)
    with pytest.raises(ModelFormatError):
        net_from_dict({}, decode_array)
    with pytest.raises(ModelFormatError):
        adam_from_dict({"alpha": 1e-3}, decode_array, 1e-3, "adam")
    good = encode_array(np.zeros((2, 3)))
    for bad in ([[0.0] * 3] * 2, dict(good, shape=[2, True, 1]),
                dict(good, shape=(2, 3)), dict(good, extra=1),
                dict(good, data=7)):
        with pytest.raises(ModelFormatError):
            decode_array(bad)


def test_set_parameters_shape_check():
    net = init_network([2, 3], rng=np.random.default_rng(0))
    with pytest.raises(ContractError):
        net.set_parameters([np.zeros((3, 2)), np.zeros(3)])

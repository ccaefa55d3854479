"""Finite-difference oracles and behavioral checks for the autodiff core."""

import numpy as np
import pytest

from voxloc import diffcore as dc
from voxloc.diffcore import (DTensor, DimensionError, MLP, NumericError,
                             Optimizer, Tape, halved_lr)

RNG = np.random.default_rng


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, shapes, seed=0, tol=1e-6, positive=False):
    """Gradcheck `build(tape, *tensors) -> DTensor` against finite differences.

    The output is reduced to a scalar by a fixed random weighting so every
    output entry contributes to the gradient.
    """
    rng = RNG(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    if positive:
        arrays = [np.abs(a) + 0.5 for a in arrays]
    tensors = [DTensor(a.copy(), name=f"x{i}")
               for i, a in enumerate(arrays)]
    tape = Tape()
    out = build(tape, *tensors)
    w = rng.normal(size=out.shape)
    loss = dc.sum_all(tape, dc.mul(tape, out, dc.DTensor(w)))
    grads = tape.backward(loss, {t.name: t for t in tensors})

    for i, base in enumerate(arrays):
        def scalar(x, k=i):
            args = [DTensor(a) for a in arrays[:k]] + [DTensor(x)] + \
                   [DTensor(a) for a in arrays[k + 1:]]
            return float((build(None, *args).values * w).sum())
        ref = numeric_grad(scalar, base.copy())
        got = grads[f"x{i}"]
        denom = max(np.abs(ref).max(), 1.0)
        assert np.abs(got - ref).max() / denom < tol, f"input {i}"


class TestPrimitiveGradients:
    def test_add_broadcast(self):
        check_op(dc.add, [(3, 4), (1, 4)])

    def test_sub_broadcast(self):
        check_op(dc.sub, [(3, 4), (3, 1)])

    def test_mul_broadcast(self):
        check_op(dc.mul, [(3, 4), (1, 4)])

    def test_scale(self):
        check_op(lambda t, a: dc.scale(t, a, -2.5), [(3, 4)])

    def test_matmul(self):
        check_op(dc.matmul, [(3, 4), (4, 5)])

    def test_matmul_nt(self):
        # the q k^T products inside attention: dq and dk with v held fixed
        v = dc.DTensor(RNG(7).normal(size=(5, 3)))
        check_op(lambda t, q, k: dc.attention(t, q, k, v, 1.0)[0],
                 [(3, 4), (5, 4)])

    def test_relu(self):
        check_op(dc.relu, [(4, 5)], seed=3)

    def test_sigmoid(self):
        check_op(dc.sigmoid, [(4, 5)])

    def test_log(self):
        check_op(dc.log, [(4, 5)], positive=True)

    def test_clamp(self):
        check_op(lambda t, a: dc.clamp(t, a, -0.5, 0.5), [(4, 5)], seed=2)

    def test_abs(self):
        check_op(dc.abs_, [(4, 5)], seed=1)

    def test_softmax_rows(self):
        # with k = v = I the attention output is the row softmax of c q
        eye = dc.DTensor(np.eye(6))
        check_op(lambda t, x: dc.attention(t, x, eye, eye, 1.0)[0], [(3, 6)])

    def test_attention(self):
        check_op(lambda t, q, k, v: dc.attention(t, q, k, v, 0.7)[0],
                 [(3, 4), (6, 4), (6, 5)])

    def test_layer_norm(self):
        check_op(dc.layer_norm, [(3, 8), (1, 8), (1, 8)], tol=1e-5)

    def test_take_rows_with_repeats(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda t, a: dc.take_rows(t, a, idx), [(4, 3)])

    def test_slice_cols(self):
        check_op(lambda t, a: dc.slice_cols(t, a, 1, 4), [(3, 6)])

    def test_rows_l2norm(self):
        check_op(dc.rows_l2norm, [(4, 3)], positive=True)

    def test_sum_all(self):
        check_op(dc.sum_all, [(3, 4)])

    def test_mean_all(self):
        check_op(dc.mean_all, [(3, 4)])


def reference_softmax(q, k, c):
    """Row softmax of c * q k^T, out of place, in attention's order."""
    x = (q @ k.T) * c
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestForwardValues:
    def test_attention_matches_reference(self):
        # bit for bit: the in-place softmax keeps the out-of-place order;
        # c = 0.3 is no power of two, so a reordered scaling rounds apart
        rng = RNG(0)
        q, k, v = (rng.normal(size=s) * 3 for s in ((5, 4), (7, 4), (7, 3)))
        out, p = dc.attention(None, DTensor(q), DTensor(k), DTensor(v), 0.3)
        want = reference_softmax(q, k, 0.3)
        np.testing.assert_array_equal(p, want)
        np.testing.assert_array_equal(out.values, want @ v)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-14)

    def test_attention_gradients_match_reference_bits(self):
        rng = RNG(5)
        arrays = [rng.normal(size=s) * 3 for s in ((6, 4), (9, 4), (9, 3))]
        w = rng.normal(size=(6, 3))
        q, k, v = (DTensor(a) for a in arrays)
        tape = Tape()
        out, _ = dc.attention(tape, q, k, v, 0.3)
        grads = tape.backward(
            dc.sum_all(tape, dc.mul(tape, out, dc.DTensor(w))),
            {"q": q, "k": k, "v": v})
        qa, ka, va = arrays
        p = reference_softmax(qa, ka, 0.3)
        dp = w @ va.T
        ds = p * (dp - (dp * p).sum(axis=1, keepdims=True)) * 0.3
        np.testing.assert_array_equal(grads["q"], ds @ ka)
        np.testing.assert_array_equal(grads["k"], ds.T @ qa)
        np.testing.assert_array_equal(grads["v"], p.T @ w)

    def test_sigmoid_extreme_logits_stable(self):
        x = DTensor(np.array([[-800.0, 800.0, 0.0]]))
        v = dc.sigmoid(None, x).values
        np.testing.assert_allclose(v, [[0.0, 1.0, 0.5]], atol=1e-12)

    def test_layer_norm_statistics(self):
        x = RNG(1).normal(size=(6, 16)) * 4 + 3
        out = dc.layer_norm(None, DTensor(x), DTensor(np.ones((1, 16))),
                            DTensor(np.zeros((1, 16)))).values
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-3)

    def test_rows_l2norm_zero_row(self):
        a = DTensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        tape = Tape()
        out = dc.rows_l2norm(tape, a)
        np.testing.assert_allclose(out.values, [[0.0], [5.0]])
        grads = tape.backward(dc.sum_all(tape, out), {"a": a})
        np.testing.assert_allclose(grads["a"], [[0.0, 0.0], [0.6, 0.8]])

    def test_mlp_forward_matches_numpy(self):
        rng = RNG(5)
        mlp = MLP.init([6, 8, 3], rng)
        x = rng.normal(size=(4, 6))
        h = np.maximum(x @ mlp.weights[0].values + mlp.biases[0].values, 0.0)
        ref = h @ mlp.weights[1].values + mlp.biases[1].values
        np.testing.assert_allclose(mlp.forward(None, DTensor(x)).values, ref,
                                   atol=1e-15)


class TestDtype:
    @pytest.mark.parametrize("values, dtype", [
        (np.ones(2, dtype=np.float32), np.float32),
        (np.ones(2), np.float64),
        (np.ones(2, dtype=np.float16), np.float64),
        (np.ones(2, dtype=np.int32), np.float64),
        ([1.0, 2.0], np.float64),
    ])
    def test_only_float32_input_keeps_its_dtype(self, values, dtype):
        assert DTensor(values).values.dtype == dtype

    def test_untaped_float32_forward_stays_float32(self):
        rng = RNG(5)
        x, w, b, kv = (DTensor(rng.normal(size=s).astype(np.float32))
                       for s in ((4, 3), (3, 3), (1, 3), (5, 3)))
        h = dc.relu(None, dc.add(None, dc.matmul(None, x, w), b))
        h = dc.layer_norm(None, h, b, b)
        att, p = dc.attention(None, h, kv, kv, 0.5)
        out = dc.sigmoid(None, dc.slice_cols(None, dc.take_rows(
            None, dc.mul(None, att, att), [0, 2]), 0, 1))
        assert p.dtype == np.float32
        for t in (h, att, out):
            assert t.values.dtype == np.float32


class TestTape:
    def test_second_sweep_returns_equal_gradients(self):
        # backward keeps no state, so sweeping the same tape again cannot
        # accumulate into the first sweep's result
        a = DTensor(RNG(0).normal(size=(3, 3)))
        tape = Tape()
        loss = dc.sum_all(tape, dc.mul(tape, a, a))
        once = tape.backward(loss, {"a": a})["a"]
        twice = tape.backward(loss, {"a": a})["a"]
        np.testing.assert_array_equal(twice, once)
        np.testing.assert_array_equal(once, 2.0 * a.values)

    def test_backward_requires_scalar(self):
        a = DTensor(np.ones((2, 2)))
        tape = Tape()
        out = dc.scale(tape, a, 2.0)
        with pytest.raises(DimensionError):
            tape.backward(out, {"a": a})

    def test_unreached_tensor_gets_zeros_of_its_shape_and_dtype(self):
        a = DTensor(np.ones((2, 2)))
        t = DTensor(np.ones((2, 3), dtype=np.float32))
        tape = Tape()
        grads = tape.backward(dc.sum_all(tape, a), {"t": t, "a": a})
        assert grads["t"].shape == (2, 3) and grads["t"].dtype == np.float32
        assert np.all(grads["t"] == 0.0)
        np.testing.assert_array_equal(grads["a"], np.ones((2, 2)))

    def test_first_backward_leaves_grad_equal_to_adjoint(self):
        a = DTensor(RNG(1).normal(size=(3, 2)))
        w = RNG(2).normal(size=(3, 2))
        tape = Tape()
        grads = tape.backward(
            dc.sum_all(tape, dc.mul(tape, a, dc.DTensor(w))), {"a": a})
        np.testing.assert_array_equal(grads["a"], w)

    def test_only_leaves_receive_gradients(self):
        rng = RNG(5)
        x = DTensor(rng.normal(size=(4, 3)))
        w = DTensor(rng.normal(size=(3, 2)))
        c = rng.normal(size=(4, 2))
        tape = Tape()
        h = dc.matmul(tape, x, w)
        r = dc.relu(tape, h)
        cw = dc.DTensor(c)
        m = dc.mul(tape, r, cw)
        loss = dc.sum_all(tape, m)
        grads = tape.backward(loss, {"x": x, "w": w, "cw": cw})
        assert set(grads) == {"x", "w", "cw"}
        # each VJP by hand, in the order the sweep applies them
        dh = c * (h.values > 0.0).astype(np.float64)
        np.testing.assert_array_equal(grads["x"], dh @ w.values.T)
        np.testing.assert_array_equal(grads["w"], x.values.T @ dh)
        np.testing.assert_array_equal(grads["cw"], r.values)

    def test_inactive_inputs_get_no_vjp_call(self):
        # a constant that no wrt tensor reaches costs no VJP, and skipping
        # it leaves the requested gradient exact
        rng = RNG(6)
        w = DTensor(rng.normal(size=(3, 2)))
        x = DTensor(rng.normal(size=(4, 3)))

        def spy(g):
            raise AssertionError("VJP of the constant input called")
        tape = Tape()
        h = DTensor(x.values @ w.values)
        tape.record(h, [(x, spy), (w, lambda g: x.values.T @ g)])
        loss = dc.sum_all(tape, dc.mul(tape, h, h))
        grads = tape.backward(loss, {"w": w})
        assert set(grads) == {"w"}
        np.testing.assert_array_equal(grads["w"],
                                      x.values.T @ (2.0 * h.values))

    def test_reused_tensor_accumulates(self):
        a = DTensor(np.array([[2.0]]))
        tape = Tape()
        out = dc.add(tape, dc.mul(tape, a, a), a)  # a^2 + a, d/da = 2a + 1
        grads = tape.backward(dc.sum_all(tape, out), {"a": a})
        np.testing.assert_allclose(grads["a"], [[5.0]])

    def test_sweeps_of_two_losses_add_up(self):
        # attention reuses dS within one sweep; a second sweep with another
        # adjoint must not see the first sweep's dS
        rng = RNG(4)
        arrays = [rng.normal(size=s) for s in ((3, 4), (5, 4), (5, 2))]
        w1, w2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

        def grads(weights):
            ins = [DTensor(a) for a in arrays]
            tape = Tape()
            out, _ = dc.attention(tape, *ins, 0.8)
            total = [0.0, 0.0, 0.0]
            for w in weights:
                got = tape.backward(
                    dc.sum_all(tape, dc.mul(tape, out, dc.DTensor(w))),
                    dict(enumerate(ins)))
                total = [t + got[i] for i, t in enumerate(total)]
            return total

        both = grads([w1, w2])
        for got, g1, g2 in zip(both, grads([w1]), grads([w2])):
            np.testing.assert_allclose(got, g1 + g2, rtol=0, atol=1e-13)


class TestNumericGuards:
    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            DTensor(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            DTensor(np.array([np.inf]))

    def test_log_of_zero_aborts(self):
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            dc.log(None, DTensor(np.array([[0.0]])))

    def test_overflowing_forward_aborts(self):
        a = DTensor(np.array([[1e308]]))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            dc.mul(None, a, a)

    def test_overflowing_attention_logits_abort(self):
        q = DTensor(np.array([[1e200, 0.0]]))
        k = DTensor(np.array([[1e200, 0.0], [0.0, 1.0]]))
        v = DTensor(np.ones((2, 3)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="logits"):
            dc.attention(None, q, k, v, 1.0)

    def test_overflowing_layer_norm_variance_aborts(self):
        # finite in float32, but the squared deviations are not; an inf
        # variance would otherwise turn every row into its bias
        x = DTensor(np.array([[1e20, -1e20]], dtype=np.float32))
        ones, zeros = DTensor(np.ones((1, 2))), DTensor(np.zeros((1, 2)))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="variance"):
            dc.layer_norm(None, x, ones, zeros)

    def test_optimizer_rejects_nan_gradient(self):
        p = DTensor(np.zeros(3), name="p")
        opt = Optimizer({"p": p}, lr=0.1)
        with pytest.raises(NumericError):
            opt.step({"p": np.array([0.0, np.nan, 0.0])})


def reference_adam(values, grads, lr, betas=(0.9, 0.999), eps=1e-8):
    """Scalar-loop Adam reference over a sequence of gradients."""
    x = values.astype(float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g ** 2
        mhat = m / (1 - betas[0] ** t)
        vhat = v / (1 - betas[1] ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    return x


class TestOptimizer:
    def test_adam_matches_reference(self):
        rng = RNG(7)
        x0 = rng.normal(size=(4,))
        grads = [rng.normal(size=(4,)) for _ in range(5)]
        p = DTensor(x0.copy(), name="p")
        opt = Optimizer({"p": p}, lr=0.05)
        for g in grads:
            opt.step({"p": g})
        np.testing.assert_allclose(p.values, reference_adam(x0, grads, 0.05),
                                   rtol=0, atol=1e-14)

    def test_active_subset_keeps_per_param_step_counts(self):
        a = DTensor(np.zeros(1), name="a")
        b = DTensor(np.zeros(1), name="b")
        opt = Optimizer({"a": a, "b": b}, lr=0.1)
        opt.step({"a": np.ones(1)})
        assert opt.steps == {"a": 1, "b": 0}
        assert a.values[0] != 0.0 and b.values[0] == 0.0
        assert np.all(opt.m["b"] == 0.0) and np.all(opt.v["b"] == 0.0)

    def test_parameter_without_gradient_stays_put(self):
        p = DTensor(np.array([1.0, -2.0]), name="p")
        opt = Optimizer({"p": p}, lr=0.1)
        opt.step({"p": np.zeros(2)})
        np.testing.assert_array_equal(p.values, [1.0, -2.0])
        opt.step({})
        np.testing.assert_array_equal(p.values, [1.0, -2.0])


def test_halved_lr_schedule():
    assert halved_lr(1.0, 0, 15) == 1.0
    assert halved_lr(1.0, 14, 15) == 1.0
    assert halved_lr(1.0, 15, 15) == 0.5
    assert halved_lr(1.0, 45, 15) == 0.125
    assert halved_lr(0.3, 99, 0) == 0.3


def test_dimension_errors():
    a = DTensor(np.ones((2, 3)))
    b = DTensor(np.ones((4, 5)))
    with pytest.raises(DimensionError):
        dc.matmul(None, a, b)
    q, k, v = (DTensor(np.ones(s)) for s in ((2, 3), (4, 3), (4, 5)))
    with pytest.raises(DimensionError):
        dc.attention(None, q, DTensor(np.ones((4, 2))), v, 1.0)
    with pytest.raises(DimensionError):
        dc.attention(None, q, k, DTensor(np.ones((3, 5))), 1.0)

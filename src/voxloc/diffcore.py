"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery for the cross-attention decoder: dense tensors, a
recording tape whose reverse sweep returns the gradients it is asked for,
the handful of primitives the decoder and losses need (single-head
attention among them, as one op with a hand-written VJP), and Adam,
which steps named parameters by given gradients. Nothing stores a gradient.
Everything is deterministic: fixed reduction orders, no threading. Tensors
are float64 unless made from float32 values, and ops run in their inputs'
dtype, so one forward pass serves float64 training and a float32 untaped
decode. Bit-identical invariance to code permutations is achieved upstream,
where the decoder canonicalizes code-row order before any reduction touches
them.
"""

from __future__ import annotations

import numpy as np

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NumericError(RuntimeError):
    """Raised when a NaN/Inf shows up anywhere in a computation."""


class DimensionError(ValueError):
    """Raised on shape mismatches; message carries both shapes."""


def _check_finite(values: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite value produced in {where}")


class DTensor:
    """Dense float64 array, or float32 when made from float32 values."""

    __slots__ = ("values", "name")

    def __init__(self, values, name: str = ""):
        v = np.asarray(values)
        self.values = v.astype(np.float32 if v.dtype == np.float32 else np.float64)
        _check_finite(self.values, name or "DTensor")
        self.name = name

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"DTensor(shape={self.values.shape}, name={self.name!r})"


class Tape:
    """Ordered record of primitive ops; inputs always precede outputs.

    backward(loss, wrt) returns the gradients of loss for the named tensors
    in wrt. It calls a VJP only for inputs that depend on a wrt tensor, and
    it keeps no state: sweeping twice gives equal gradients.
    """

    def __init__(self):
        # each entry: (output tensor, [(input tensor, vjp(adjoint) -> array)])
        self._ops: list[tuple[DTensor, list[tuple[DTensor, object]]]] = []

    def record(self, out: DTensor, pulls) -> None:
        self._ops.append((out, pulls))

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: DTensor,
                 wrt: dict[str, DTensor]) -> dict[str, np.ndarray]:
        if loss.values.size != 1:
            raise DimensionError(
                f"backward needs a scalar loss, got shape {loss.values.shape}"
            )
        # activity analysis: an op output is active if any input is
        active = {id(t) for t in wrt.values()}
        for out, pulls in self._ops:
            if any(id(inp) in active for inp, _ in pulls):
                active.add(id(out))
        adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
        for out, pulls in reversed(self._ops):
            g = adjoint.get(id(out))
            if g is None:
                continue
            for inp, vjp in pulls:
                key = id(inp)
                if key not in active:
                    continue
                contrib, prev = vjp(g), adjoint.get(key)
                adjoint[key] = contrib if prev is None else prev + contrib
        grads = {name: adjoint[id(t)] if id(t) in adjoint
                 else np.zeros_like(t.values) for name, t in wrt.items()}
        for name, g in grads.items():
            _check_finite(g, f"gradient of {name}")
        return grads


def _rec(tape: Tape | None, out: DTensor, pulls) -> DTensor:
    if tape is not None:
        tape.record(out, pulls)
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(tape, a: DTensor, b: DTensor) -> DTensor:
    out = DTensor(a.values + b.values, "add")
    return _rec(tape, out, [
        (a, lambda g, s=a.shape: _unbroadcast(g, s)),
        (b, lambda g, s=b.shape: _unbroadcast(g, s)),
    ])


def sub(tape, a: DTensor, b: DTensor) -> DTensor:
    out = DTensor(a.values - b.values, "sub")
    return _rec(tape, out, [
        (a, lambda g, s=a.shape: _unbroadcast(g, s)),
        (b, lambda g, s=b.shape: -_unbroadcast(g, s)),
    ])


def mul(tape, a: DTensor, b: DTensor) -> DTensor:
    out = DTensor(a.values * b.values, "mul")
    return _rec(tape, out, [
        (a, lambda g, bv=b.values, s=a.shape: _unbroadcast(g * bv, s)),
        (b, lambda g, av=a.values, s=b.shape: _unbroadcast(g * av, s)),
    ])


def scale(tape, a: DTensor, c: float) -> DTensor:
    out = DTensor(a.values * c, "scale")
    return _rec(tape, out, [(a, lambda g: g * c)])


def matmul(tape, a: DTensor, b: DTensor) -> DTensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = DTensor(a.values @ b.values, "matmul")
    return _rec(tape, out, [
        (a, lambda g, bv=b.values: g @ bv.T),
        (b, lambda g, av=a.values: av.T @ g),
    ])


def relu(tape, a: DTensor) -> DTensor:
    out = DTensor(np.maximum(a.values, 0.0), "relu")
    return _rec(tape, out, [(a, lambda g, av=a.values: g * (av > 0.0))])


def sigmoid(tape, a: DTensor) -> DTensor:
    v = np.empty_like(a.values)
    pos = a.values >= 0
    v[pos] = 1.0 / (1.0 + np.exp(-a.values[pos]))
    ez = np.exp(a.values[~pos])
    v[~pos] = ez / (1.0 + ez)
    out = DTensor(v, "sigmoid")
    return _rec(tape, out, [(a, lambda g, vv=v: g * vv * (1.0 - vv))])


def log(tape, a: DTensor) -> DTensor:
    out = DTensor(np.log(a.values), "log")
    return _rec(tape, out, [(a, lambda g, av=a.values: g / av)])


def clamp(tape, a: DTensor, lo: float, hi: float) -> DTensor:
    out = DTensor(np.clip(a.values, lo, hi), "clamp")
    return _rec(tape, out, [
        (a, lambda g, av=a.values: g * ((av > lo) & (av < hi)))])


def abs_(tape, a: DTensor) -> DTensor:
    out = DTensor(np.abs(a.values), "abs")
    return _rec(tape, out, [(a, lambda g, av=a.values: g * np.sign(av))])


def attention(tape, q: DTensor, runs: list, c: float):
    """Single-head attention softmax(c * q k^T) v as one primitive, over
    consecutive row runs: for each (n, k, v) of runs, in order, the next n
    rows of q attend over that run's k and v.

    q is (m, e) with m the runs' total n; each k is (l, e) and each v (l, d)
    with l >= 1. Returns the (m, d) output and each run's (n, l) row-softmax
    weights, plain arrays off the tape. The softmax subtracts each row's
    max; its reduction order follows the caller's (canonical) row order of
    k, so outputs are deterministic. A run's logits, softmax and their
    adjoint each live in one (n, l) buffer updated in place, in the same
    operation order as the out-of-place formulas.
    """
    ends = np.cumsum([n for n, _, _ in runs])
    if (not runs or q.values.ndim != 2 or ends[-1] != q.shape[0]
            or any(k.values.ndim != 2 or v.values.ndim != 2 or k.shape[0] < 1
                   or q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]
                   for _, k, v in runs)):
        raise DimensionError(f"attention shape mismatch: q {q.shape}, runs "
                             f"{[(n, k.shape, v.shape) for n, k, v in runs]}")
    runs = [(slice(end - n, end), k, v) for (n, k, v), end in zip(runs, ends)]
    ps = []
    for r, k, _ in runs:
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            p = q.values[r] @ k.values.T
            p *= c
        _check_finite(p, "attention logits")
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        ps.append(p)
    out = DTensor(np.concatenate([p @ v.values for p, (_, _, v)
                                  in zip(ps, runs)]), "attention")
    memo: list = [None, None]   # (adjoint, each run's dS) of the latest sweep

    def d_logits(g):
        # dq and dk share dS, computed once per adjoint; memo holds g, so a
        # later sweep's adjoint cannot be a new array at g's address; dS is
        # p * (dp - rowsum(dp * p)) * c, formed in dp's buffer
        if memo[0] is not g:
            memo[:] = g, []
            for p, (r, _, v) in zip(ps, runs):
                dp = g[r] @ v.values.T
                dp -= (dp * p).sum(axis=1, keepdims=True)
                dp *= p
                dp *= c
                memo[1].append(dp)
        return memo[1]

    pulls = [(q, lambda g: np.concatenate(
        [s @ k.values for s, (_, k, _) in zip(d_logits(g), runs)]))]
    for i, (r, k, v) in enumerate(runs):
        pulls += [(k, lambda g, i=i, qv=q.values[r]: d_logits(g)[i].T @ qv),
                  (v, lambda g, p=ps[i], r=r: p.T @ g[r])]
    return _rec(tape, out, pulls), ps


def layer_norm(tape, x: DTensor, gain: DTensor, bias: DTensor,
               eps: float = 1e-6) -> DTensor:
    d = x.shape[-1]
    if d < 2:
        raise DimensionError(f"layer_norm needs feature dim >= 2, got {x.shape}")
    mean = x.values.mean(axis=-1, keepdims=True)
    centered = x.values - mean
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    _check_finite(var, "layer_norm variance")  # else inf var gives xhat 0
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = DTensor(xhat * gain.values + bias.values, "layer_norm")

    def pull_x(g, xh=xhat, iv=inv, gv=gain.values):
        gx = g * gv
        return iv * (gx - gx.mean(axis=-1, keepdims=True)
                     - xh * (gx * xh).mean(axis=-1, keepdims=True))

    return _rec(tape, out, [
        (x, pull_x),
        (gain, lambda g, xh=xhat, s=gain.shape: _unbroadcast(g * xh, s)),
        (bias, lambda g, s=bias.shape: _unbroadcast(g, s)),
    ])


def take_rows(tape, a: DTensor, idx: np.ndarray) -> DTensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = DTensor(a.values[idx], "take_rows")

    def pull(g, n=a.shape, ii=idx):
        full = np.zeros(n, dtype=np.float64)
        np.add.at(full, ii, g)
        return full

    return _rec(tape, out, [(a, pull)])


def slice_cols(tape, a: DTensor, j0: int, j1: int) -> DTensor:
    out = DTensor(a.values[:, j0:j1], "slice_cols")

    def pull(g, n=a.shape, a0=j0, a1=j1):
        full = np.zeros(n, dtype=np.float64)
        full[:, a0:a1] = g
        return full

    return _rec(tape, out, [(a, pull)])


def rows_l2norm(tape, a: DTensor) -> DTensor:
    """Per-row Euclidean norm, (m,d) -> (m,1). Zero rows get zero gradient."""
    n = np.sqrt((a.values ** 2).sum(axis=1, keepdims=True))
    out = DTensor(n, "rows_l2norm")

    def pull(g, av=a.values, nv=n):
        safe = np.where(nv > 0.0, nv, 1.0)
        return g * av / safe * (nv > 0.0)

    return _rec(tape, out, [(a, pull)])


def sum_all(tape, a: DTensor) -> DTensor:
    out = DTensor(np.array(a.values.sum()), "sum_all")
    return _rec(tape, out, [(a, lambda g, s=a.shape: np.broadcast_to(g, s).copy())])


def mean_all(tape, a: DTensor) -> DTensor:
    k = a.values.size
    out = DTensor(np.array(a.values.mean()), "mean_all")
    return _rec(tape, out, [
        (a, lambda g, s=a.shape, kk=k: np.broadcast_to(g / kk, s).copy())
    ])


class MLP:
    """Affine stack with ReLU between layers and a linear final layer."""

    def __init__(self, weights: list[DTensor], biases: list[DTensor]):
        if len(weights) != len(biases):
            raise DimensionError("weights/biases length mismatch")
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[-1]:
                raise DimensionError(f"affine shape mismatch: {w.shape} vs {b.shape}")
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(cls, widths: list[int], rng: np.random.Generator,
             prefix: str = "mlp") -> "MLP":
        weights, biases = [], []
        for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
            bound = np.sqrt(6.0 / (fi + fo))
            w = DTensor(rng.uniform(-bound, bound, size=(fi, fo)),
                        name=f"{prefix}.{i}.W")
            b = DTensor(np.zeros((1, fo)), name=f"{prefix}.{i}.b")
            weights.append(w)
            biases.append(b)
        return cls(weights, biases)

    def forward(self, tape, x: DTensor) -> DTensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = add(tape, matmul(tape, h, w), b)
            if i != last:
                h = relu(tape, h)
        return h

    def parameters(self) -> list[DTensor]:
        return list(self.weights) + list(self.biases)


class Optimizer:
    """Adam (Kingma & Ba, 2015) over named parameters.

    step(grads) updates exactly the parameters that grads names, in sorted
    order; the others keep their values, step counts and moments.
    """

    def __init__(self, params: dict[str, DTensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.steps: dict[str, int] = {name: 0 for name in self.params}
        self.m = {n: np.zeros_like(p.values) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.values) for n, p in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name in sorted(grads):
            p, g = self.params[name], grads[name]
            if np.any(np.isnan(g)):
                raise NumericError(f"NaN gradient in parameter {name!r}")
            self.steps[name] += 1
            t = self.steps[name]
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g ** 2
            mhat = m / (1.0 - ADAM_BETA1 ** t)
            vhat = v / (1.0 - ADAM_BETA2 ** t)
            p.values -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            _check_finite(p.values, f"parameter {name!r} after step")


def halved_lr(base_lr: float, epoch: int, period: int) -> float:
    """Learning rate after halving once every `period` epochs."""
    if period <= 0:
        return base_lr
    return base_lr * 0.5 ** (epoch // period)

"""Dense tensors with reverse-mode automatic differentiation.

Everything is numpy underneath. float32 is the working precision; the same
graph code runs in float64 when gradient checking needs headroom. An op only
records parents and a backward closure when some input requires grad, so a
frozen model executes forward passes without building any graph.

Backward closures return one gradient array per parent (or None). The
engine topologically sorts the graph, seeds d(loss)/d(loss) = 1 and adds
each contribution into `.grad`, so repeated backward calls accumulate.
"""

from __future__ import annotations

import numpy as np

DEFAULT_DTYPE = np.float32


class Rng:
    """Deterministic random source. Same seed, same draw sequence, bit-exact."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, shape, dtype=DEFAULT_DTYPE) -> np.ndarray:
        return self._gen.uniform(low, high, shape).astype(dtype)

    def random(self, shape, dtype=DEFAULT_DTYPE) -> np.ndarray:
        return self._gen.random(shape, dtype=dtype)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def keep_mask(self, shape, p: float, dtype=DEFAULT_DTYPE) -> np.ndarray:
        """Bool dropout mask: True where a uniform draw of `dtype` is >= p."""
        return self.random(shape, dtype=dtype) >= p


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if isinstance(data, np.generic):
            # 0-d results of numpy scalar math keep their dtype
            data = np.asarray(data)
        elif not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.data = data
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other, self.dtype)))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=requires_grad)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap an op result; the graph edge exists only if a parent needs grad."""
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _accumulate(node: Tensor, g: np.ndarray):
    if node.grad is None:
        node.grad = np.zeros_like(node.data)
    node.grad += g


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar. Leaf gradients add into `.grad`."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    # local flows keep a single backward pass self-contained; a node's flow is
    # complete when the sweep reaches it, and is dropped once passed on
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            _accumulate(node, g)
            continue
        grads = node._backward(g)
        for p, pg in zip(node._parents, grads):
            if pg is None or not p.requires_grad:
                continue
            prev = flow.get(id(p))
            flow[id(p)] = pg if prev is None else prev + pg


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    try:
        out = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    def back(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), back)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    try:
        out = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    def back(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D x 2-D, or stacks of matrices with equal leading dimensions."""
    sa, sb = a.data.shape, b.data.shape
    ok = len(sa) == len(sb) >= 2 and sa[:-2] == sb[:-2] and sa[-1] == sb[-2]
    if not ok:
        raise ValueError(f"matmul: incompatible shapes {sa} @ {sb}")
    out = a.data @ b.data

    def back(g):
        ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
        gb = np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None
        return ga, gb

    return _make(out, (a, b), back)


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = a.data.sum()

    def back(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make(np.asarray(out, dtype=a.dtype), (a,), back)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def back(g):
        return (g * (a.data > 0),)

    return _make(out, (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) never overflows; saturated negatives land on subnormals, not NaN
    z = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(a.dtype, copy=False)

    def back(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), back)


def square(a: Tensor) -> Tensor:
    out = a.data * a.data

    def back(g):
        return (g * 2.0 * a.data,)

    return _make(out, (a,), back)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"softmax: axis {axis} out of range for shape {a.data.shape}")
    shifted = a.data - np.maximum.reduce(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=axis, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis with population variance; y = gamma*xhat + beta."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layer_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} do not match feature dim {d}"
        )
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    # the reduce-then-divide form of .mean, bit for bit, without its call overhead
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_sigma
    out = gamma.data * xhat + beta.data

    def back(g):
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) * inv_sigma
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), back)


def dropout(x: Tensor, p: float, training: bool, rng: Rng | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p). Identity when not training.

    The backward closure keeps the bool keep mask, a quarter of a float32 one.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: rng required in training mode")
    keep = rng.keep_mask(x.data.shape, p, x.dtype)
    scale = 1.0 / (1.0 - p)
    out = x.data * keep * scale

    def back(g):
        return (g * keep * scale,)

    return _make(out, (x,), back)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather; backward scatter-adds into the table gradient."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        bad = int(ids[(ids < 0) | (ids >= table.data.shape[0])][0])
        raise IndexError(f"embedding_lookup: id {bad} out of range [0, {table.data.shape[0]})")
    out = table.data[ids]

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(out, (table,), back)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def back(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), back)


def transpose(a: Tensor, axes) -> Tensor:
    out = a.data.transpose(axes)

    def back(g):
        return (g.transpose(np.argsort(axes)),)

    return _make(out, (a,), back)


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


def grad_check(f, params, eps: float | None = None) -> float:
    """Compare analytic gradients of scalar f(params) against central differences.

    Error metric per entry: |a - n| / max(1, |a|, |n|). Returns the max over
    all entries of all params. f must be deterministic (dropout disabled).
    """
    if eps is None:
        eps = 1e-3 if params and params[0].dtype == np.float32 else 1e-6
    zero_grads(params)
    loss = f(params)
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(params).item()
            flat[i] = orig - eps
            lo = f(params).item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
            if err > worst:
                worst = err
    return worst

"""Dense tensors with reverse-mode automatic differentiation.

Everything is numpy underneath. float32 is the working precision; the same
graph code runs in float64 when gradient checking needs headroom. Every op
takes Tensors or plain ndarrays. It records parents and a backward closure
only when some operand is a Tensor that requires grad; an ndarray operand
then joins the graph as a constant. Otherwise it returns the plain ndarray
and builds no Tensor, so a frozen model's forward pass runs on arrays alone.
`value` reads the array of either form.

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
        return add(self, neg(_operand(other, self.dtype)))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    arr = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=requires_grad)


def value(x) -> np.ndarray:
    """The array behind an op operand or result: a Tensor's data, or x itself."""
    return x.data if isinstance(x, Tensor) else x


def _grad(x) -> bool:
    return isinstance(x, Tensor) and x.requires_grad


def _operand(b, dtype):
    """b itself when it is a Tensor, else b as an array of dtype."""
    return b if isinstance(b, Tensor) else np.asarray(b, dtype=dtype)


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap an op result; the graph edge exists only if a parent needs grad.
    An ndarray parent joins the graph as a constant Tensor."""
    for p in parents:
        if _grad(p):
            parents = tuple(q if isinstance(q, Tensor) else Tensor(q) for q in parents)
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward_fn)
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


def add(a, b):
    b = _operand(b, a.dtype)
    x, y = value(a), value(b)
    try:
        out = x + y
    except ValueError:
        raise ValueError(f"add: shapes {x.shape} and {y.shape} do not broadcast")
    if not (_grad(a) or _grad(b)):
        return out

    def back(g):
        return (
            _unbroadcast(g, x.shape) if _grad(a) else None,
            _unbroadcast(g, y.shape) if _grad(b) else None,
        )

    return _make(out, (a, b), back)


def neg(a):
    out = -value(a)
    if not _grad(a):
        return out
    return _make(out, (a,), lambda g: (-g,))


def mul(a, b):
    b = _operand(b, a.dtype)
    x, y = value(a), value(b)
    try:
        out = x * y
    except ValueError:
        raise ValueError(f"mul: shapes {x.shape} and {y.shape} do not broadcast")
    if not (_grad(a) or _grad(b)):
        return out

    def back(g):
        return (
            _unbroadcast(g * y, x.shape) if _grad(a) else None,
            _unbroadcast(g * x, y.shape) if _grad(b) else None,
        )

    return _make(out, (a, b), back)


def matmul(a, b):
    """2-D x 2-D, or stacks of matrices with equal leading dimensions."""
    x, y = value(a), value(b)
    sa, sb = x.shape, y.shape
    ok = len(sa) == len(sb) >= 2 and sa[:-2] == sb[:-2] and sa[-1] == sb[-2]
    if not ok:
        raise ValueError(f"matmul: incompatible shapes {sa} @ {sb}")
    out = x @ y
    if not (_grad(a) or _grad(b)):
        return out

    def back(g):
        ga = g @ np.swapaxes(y, -1, -2) if _grad(a) else None
        gb = np.swapaxes(x, -1, -2) @ g if _grad(b) else None
        return ga, gb

    return _make(out, (a, b), back)


def tsum(a):
    """Sum of all elements, as a 0-d array of a's dtype."""
    x = value(a)
    out = np.asarray(x.sum(), dtype=x.dtype)
    if not _grad(a):
        return out

    def back(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _make(out, (a,), back)


def relu(a):
    x = value(a)
    out = np.maximum(x, 0)
    if not _grad(a):
        return out

    def back(g):
        return (g * (x > 0),)

    return _make(out, (a,), back)


def _sigmoid_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigmoid(z), e = exp(-|z|)), new arrays of z's dtype. e never overflows.

    sigmoid = max(e, z >= 0) / (1 + e): the max is 1 for z >= 0, where e <= 1,
    and e for z < 0, so this is 1/(1+e) or e/(1+e) by sign, without a branch.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, z >= 0)
    s /= e + 1.0
    return s, e


def softmax(a, axis: int = -1):
    x = value(a)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"softmax: axis {axis} out of range for shape {x.shape}")
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=axis, keepdims=True)
    if not _grad(a):
        return out

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), back)


def layer_norm(x, gamma, beta, eps: float = 1e-5):
    """Normalize over the last axis with population variance; y = gamma*xhat + beta."""
    xd, gd, bd = value(x), value(gamma), value(beta)
    d = xd.shape[-1]
    if gd.shape != (d,) or bd.shape != (d,):
        raise ValueError(
            f"layer_norm: gamma/beta shapes {gd.shape}/{bd.shape} do not match feature dim {d}"
        )
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    # the reduce-then-divide form of .mean, bit for bit, without its call overhead
    mu = np.add.reduce(xd, axis=-1, keepdims=True) / d
    centered = xd - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv_sigma = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_sigma
    out = gd * xhat + bd
    if not (_grad(x) or _grad(gamma) or _grad(beta)):
        return out

    def back(g):
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) * inv_sigma
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), back)


def dropout(x, p: float, training: bool, rng: Rng | None = None):
    """Inverted dropout: survivors scaled by 1/(1-p). Identity when not training.

    The backward closure keeps the bool keep mask, a quarter of a float32 one.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: rng required in training mode")
    xd = value(x)
    keep = rng.keep_mask(xd.shape, p, xd.dtype)
    scale = 1.0 / (1.0 - p)
    out = xd * keep * scale
    if not _grad(x):
        return out

    def back(g):
        return (g * keep * scale,)

    return _make(out, (x,), back)


def embedding_lookup(table, ids: np.ndarray):
    """Row gather; backward scatter-adds into the table gradient."""
    t = value(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= t.shape[0]):
        bad = int(ids[(ids < 0) | (ids >= t.shape[0])][0])
        raise IndexError(f"embedding_lookup: id {bad} out of range [0, {t.shape[0]})")
    out = t[ids]
    if not _grad(table):
        return out

    def back(g):
        gt = np.zeros_like(t)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(out, (table,), back)


def reshape(a, shape):
    x = value(a)
    out = x.reshape(shape)
    if not _grad(a):
        return out

    def back(g):
        return (g.reshape(x.shape),)

    return _make(out, (a,), back)


def transpose(a, axes):
    out = value(a).transpose(axes)
    if not _grad(a):
        return out

    def back(g):
        return (g.transpose(np.argsort(axes)),)

    return _make(out, (a,), back)


def grad_check(f, params, eps: float | None = None) -> float:
    """Compare analytic gradients of scalar f(params) against central differences.

    Error metric per entry: |a - n| / max(1, |a|, |n|). Returns the max over
    all entries of all params. f must be deterministic (dropout disabled).
    """
    if eps is None:
        eps = 1e-3 if params and params[0].dtype == np.float32 else 1e-6
    for p in params:
        p.zero_grad()
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

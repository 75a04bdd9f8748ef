"""Reverse-mode automatic differentiation over numpy float64 arrays.

Each op returns a Var that holds its value, its parent Vars and one VJP
closure per parent; the graph is nothing more than these parent links.
An op none of whose operands is a Var returns a plain ndarray instead:
nothing can ask for its gradient, so inference on plain parameter
arrays builds no graph and keeps no closures alive.
``backward`` walks them from a scalar root in reverse topological order
and accumulates adjoints into every reachable Var. Parents never point
back at their children, so a graph is freed by reference counting as
soon as its root goes out of scope.
"""
from __future__ import annotations

import numpy as np


class Tape:
    """Stateless handle kept for callers that unpack it from
    ``trainer.sentence_loss``; ``backward`` is the module function."""

    def backward(self, root, seed_grad=None):
        backward(root, seed_grad)


def backward(root, seed_grad=None):
    """Accumulate d(root)/d(leaf) into .grad of every ancestor Var.

    Visits each node exactly once, in reverse topological order obtained
    by an iterative depth-first walk of the parent links.
    """
    if seed_grad is None:
        seed_grad = np.ones_like(root.value)
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if isinstance(parent, Var) and id(parent) not in seen:
                stack.append((parent, False))
    _accum(root, np.asarray(seed_grad, dtype=np.float64))
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if isinstance(parent, Var):
                _accum(parent, vjp(g))


class Var:
    """A node in the computation graph holding a float64 ndarray."""

    __slots__ = ("value", "grad", "_parents", "_vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjps = vjps

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _op(value, parents, vjps):
    """The result of every op: a Var linked to its parents when one of
    them is a Var, else the plain float64 array."""
    for p in parents:
        if isinstance(p, Var):
            return Var(value, tuple(parents), tuple(vjps))
    return np.asarray(value, dtype=np.float64)


def _accum(var, g):
    if var.grad is None:
        var.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        var.grad += g


def val(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Sum gradient g down to the given (broadcast-source) shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    va, vb = val(a), val(b)
    return _op(
        va + vb,
        (a, b),
        (
            lambda g: _unbroadcast(g, va.shape),
            lambda g: _unbroadcast(g, vb.shape),
        ),
    )


def sub(a, b):
    va, vb = val(a), val(b)
    return _op(
        va - vb,
        (a, b),
        (
            lambda g: _unbroadcast(g, va.shape),
            lambda g: _unbroadcast(-g, vb.shape),
        ),
    )


def mul(a, b):
    va, vb = val(a), val(b)
    return _op(
        va * vb,
        (a, b),
        (
            lambda g: _unbroadcast(g * vb, va.shape),
            lambda g: _unbroadcast(g * va, vb.shape),
        ),
    )


def matmul(a, b):
    """Product of two 2-D operands."""
    va, vb = val(a), val(b)
    return _op(va @ vb, (a, b), (lambda g: g @ vb.T, lambda g: va.T @ g))


def exp(a):
    y = np.exp(val(a))
    return _op(y, (a,), (lambda g: g * y,))


def log(a):
    va = val(a)
    return _op(np.log(va), (a,), (lambda g: g / va,))


def logistic(x):
    """The value of ``sigmoid`` on a plain array: 1 / (1 + exp(-x)) for
    x >= 0 and exp(x) / (1 + exp(x)) below, with one exp(-|x|) serving
    both branches, so that no exp overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a):
    y = logistic(val(a))
    return _op(y, (a,), (lambda g: g * y * (1.0 - y),))


def clip_min(a, floor):
    va = val(a)
    return _op(
        np.maximum(va, floor), (a,), (lambda g: g * (va > floor),)
    )


def softmax(a, axis):
    va = val(a)
    m = np.max(va, axis=axis, keepdims=True)
    e = np.exp(va - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def da(g):
        return y * (g - (g * y).sum(axis=axis, keepdims=True))

    return _op(y, (a,), (da,))


def sum_all(a):
    va = val(a)
    return _op(va.sum(), (a,), (lambda g: g * np.ones_like(va),))


def gather_rows(a, idx):
    va = val(a)
    idx = np.asarray(idx, dtype=np.intp)

    def da(g):
        out = np.zeros_like(va)
        np.add.at(out, idx, g)
        return out

    return _op(va[idx], (a,), (da,))


def take_at(a, index):
    """Fancy indexing with a tuple of integer index arrays."""
    va = val(a)
    index = tuple(np.asarray(ix, dtype=np.intp) for ix in index)

    def da(g):
        out = np.zeros_like(va)
        np.add.at(out, index, g)
        return out

    return _op(va[index], (a,), (da,))


def concat(parts, axis=0):
    vals = [val(p) for p in parts]
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(k):
        sl = [slice(None)] * vals[k].ndim
        sl[axis] = slice(offsets[k], offsets[k + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return _op(
        np.concatenate(vals, axis=axis),
        tuple(parts),
        tuple(make_vjp(k) for k in range(len(parts))),
    )


def transpose(a):
    return _op(val(a).T, (a,), (lambda g: g.T,))


def permute(a, axes):
    inv = tuple(np.argsort(axes))
    return _op(val(a).transpose(axes), (a,), (lambda g: g.transpose(inv),))


def custom_op(value, parents, vjps):
    """Wrap an externally computed primitive with hand-written VJPs."""
    return _op(value, parents, vjps)


def shared_backward(parents, compute):
    """Let the VJPs of one op share the work of a backward pass.

    ``backward`` calls the VJPs of an op's Var parents back to back with
    one adjoint g. The returned function gives ``compute(g)``: the first
    call computes it, and the call for the last Var parent releases it,
    so the next backward through the op starts afresh."""
    live = sum(isinstance(p, Var) for p in parents)
    memo = []

    def shared(g):
        if not memo:
            memo[:] = [compute(g), live]
        out = memo[0]
        memo[1] -= 1
        if memo[1] == 0:
            memo.clear()
        return out

    return shared

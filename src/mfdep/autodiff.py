"""Reverse-mode automatic differentiation over numpy float64 arrays.

Each op returns a Var that holds its value, its parent Vars and one VJP
closure per parent; the graph is nothing more than these parent links.
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
    return Var(
        va + vb,
        (a, b),
        (
            lambda g: _unbroadcast(g, va.shape),
            lambda g: _unbroadcast(g, vb.shape),
        ),
    )


def sub(a, b):
    va, vb = val(a), val(b)
    return Var(
        va - vb,
        (a, b),
        (
            lambda g: _unbroadcast(g, va.shape),
            lambda g: _unbroadcast(-g, vb.shape),
        ),
    )


def mul(a, b):
    va, vb = val(a), val(b)
    return Var(
        va * vb,
        (a, b),
        (
            lambda g: _unbroadcast(g * vb, va.shape),
            lambda g: _unbroadcast(g * va, vb.shape),
        ),
    )


def matmul(a, b):
    va, vb = val(a), val(b)
    y = va @ vb

    def da(g):
        if va.ndim == 1:  # (d,) @ (d,m)
            return g @ vb.T if vb.ndim == 2 else g * vb
        if vb.ndim == 1:  # (n,d) @ (d,)
            return np.outer(g, vb)
        return g @ vb.T

    def db(g):
        if vb.ndim == 1:  # (n,d) @ (d,)
            return va.T @ g if va.ndim == 2 else g * va
        if va.ndim == 1:  # (d,) @ (d,m)
            return np.outer(va, g)
        return va.T @ g

    return Var(y, (a, b), (da, db))


def einsum(subs, a, b):
    """Pairwise einsum. Subscripts of each operand must appear in the
    output or in the other operand (true for plain contractions)."""
    va, vb = val(a), val(b)
    ins, out = subs.split("->")
    sa, sb = ins.split(",")
    y = np.einsum(subs, va, vb)

    def da(g):
        return np.einsum(f"{out},{sb}->{sa}", g, vb)

    def db(g):
        return np.einsum(f"{out},{sa}->{sb}", g, va)

    return Var(y, (a, b), (da, db))


def exp(a):
    y = np.exp(val(a))
    return Var(y, (a,), (lambda g: g * y,))


def log(a):
    va = val(a)
    return Var(np.log(va), (a,), (lambda g: g / va,))


def tanh(a):
    y = np.tanh(val(a))
    return Var(y, (a,), (lambda g: g * (1.0 - y * y),))


def sigmoid(a):
    va = val(a)
    y = np.where(va >= 0, 1.0 / (1.0 + np.exp(-va)), np.exp(va) / (1.0 + np.exp(va)))
    return Var(y, (a,), (lambda g: g * y * (1.0 - y),))


def clip_min(a, floor):
    va = val(a)
    return Var(
        np.maximum(va, floor), (a,), (lambda g: g * (va > floor),)
    )


def softmax(a, axis):
    va = val(a)
    m = np.max(va, axis=axis, keepdims=True)
    e = np.exp(va - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def da(g):
        return y * (g - (g * y).sum(axis=axis, keepdims=True))

    return Var(y, (a,), (da,))


def sum_all(a):
    va = val(a)
    return Var(va.sum(), (a,), (lambda g: g * np.ones_like(va),))


def gather_rows(a, idx):
    va = val(a)
    idx = np.asarray(idx, dtype=np.intp)

    def da(g):
        out = np.zeros_like(va)
        np.add.at(out, idx, g)
        return out

    return Var(va[idx], (a,), (da,))


def take_at(a, index):
    """Fancy indexing with a tuple of integer index arrays."""
    va = val(a)
    index = tuple(np.asarray(ix, dtype=np.intp) for ix in index)

    def da(g):
        out = np.zeros_like(va)
        np.add.at(out, index, g)
        return out

    return Var(va[index], (a,), (da,))


def row(a, i):
    va = val(a)

    def da(g):
        out = np.zeros_like(va)
        out[i] = g
        return out

    return Var(va[i], (a,), (da,))


def concat(parts, axis=0):
    vals = [val(p) for p in parts]
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(k):
        sl = [slice(None)] * vals[k].ndim
        sl[axis] = slice(offsets[k], offsets[k + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return Var(
        np.concatenate(vals, axis=axis),
        tuple(parts),
        tuple(make_vjp(k) for k in range(len(parts))),
    )


def stack_rows(parts):
    vals = [val(p) for p in parts]

    def make_vjp(k):
        return lambda g: g[k]

    return Var(
        np.stack(vals, axis=0),
        tuple(parts),
        tuple(make_vjp(k) for k in range(len(parts))),
    )


def transpose(a):
    return Var(val(a).T, (a,), (lambda g: g.T,))


def permute(a, axes):
    inv = tuple(np.argsort(axes))
    return Var(val(a).transpose(axes), (a,), (lambda g: g.transpose(inv),))


def custom_op(value, parents, vjps):
    """Wrap an externally computed primitive with hand-written VJPs."""
    return Var(value, tuple(parents), tuple(vjps))

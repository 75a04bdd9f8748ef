"""Reverse-mode automatic differentiation over numpy float64 arrays.

Each op returns through ``custom_op``: a Var that holds its value, its
parent Vars and one VJP closure that maps the adjoint of the value to one
adjoint per parent, in parent order; the graph is nothing more than these
parent links. Plain operands give a plain float64 array and no graph
node, since nothing can ask for its gradient: inference on plain
parameter arrays builds no graph.
``backward`` walks them from a scalar root in reverse topological order
and accumulates adjoints into every reachable Var. A VJP result that
nothing else can reach becomes the parent's first ``grad`` as it is
(see ``_adoptable``); any other result is copied first. A graph is
walked once: as soon as a node's VJP has run, ``backward`` drops its
closure and parent links, which frees the forward arrays the closure
captured, and the node itself unless the caller holds it (a held node
keeps its value and grad). A second walk through a walked node raises
ValueError. Parents never point back at their children, so a graph that
is never walked is freed by reference counting once its root goes.
The model layers in ``scorer`` and ``decoder`` are ``custom_op``s too;
this module holds only the elementwise, reduction and indexing ops.
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
    by an iterative depth-first walk of the parent links, and releases
    each node once its VJP has run (``_walk``).
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
    if root.grad is None:
        root.grad = np.array(seed_grad, dtype=np.float64)
    else:
        root.grad += seed_grad
    while order:
        node = order.pop()
        if node._vjp is not None:  # a leaf keeps None: the next graph may read it
            _walk(node)


def _walk(node):
    """Pass node's adjoint to its parents, then drop its VJP closure and
    parent links, so the forward arrays the closure captured are freed,
    and so is node once nothing but the graph held it."""
    g = node.grad
    if g is not None:
        adopted = []  # results of this call made grads; one may be returned twice
        for parent, r in zip(node._parents, node._vjp(g), strict=True):
            if not isinstance(parent, Var):
                continue
            if parent.grad is not None:
                parent.grad += r
            elif r is not g and not any(r is a for a in adopted) and _adoptable(r, parent):
                adopted.append(r)
                parent.grad = r
            else:
                parent.grad = np.array(r, dtype=np.float64)
    node._vjp, node._parents = _walked, ()


def _walked(g):
    """The VJP of a node that ``backward`` has walked: its closure and
    parent links are gone, so a second walk fails here."""
    raise ValueError("backward reached a node of a graph it has walked already; "
                     "a graph is walked once")


def _adoptable(r, var):
    """True when VJP result r may become var's grad as it is: a
    writeable float64 ndarray of var's shape that owns its data, so it
    is no view of another array. ``backward`` also refuses the adjoint
    itself and a result the same VJP call returned for an earlier
    parent. VJPs keep no reference to the arrays they return, and a
    walked node's VJP is dropped, so such an array is reachable through
    r alone, and adding into it later changes nothing else."""
    return (
        type(r) is np.ndarray
        and r.base is None
        and r.dtype == np.float64
        and r.flags.writeable
        and r.shape == var.value.shape
    )


class Var:
    """A node in the computation graph holding a float64 ndarray."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    def __getitem__(self, key):
        """Basic indexing, differentiable: the VJP puts g into zeros at key."""
        def vjp(g):
            out = np.zeros_like(self.value)
            out[key] = g
            return (out,)
        return custom_op(self.value[key], (self,), vjp)


def any_var(xs):
    """True when some element of xs is a Var: only then does
    ``custom_op`` build a graph node."""
    for x in xs:
        if isinstance(x, Var):
            return True
    return False


def val(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Sum gradient g down to the given (broadcast-source) shape: g
    itself when nothing is summed, else the fresh sum, never a view."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    va, vb = val(a), val(b)
    return custom_op(
        va + vb, (a, b), lambda g: (_unbroadcast(g, va.shape), _unbroadcast(g, vb.shape))
    )


def sub(a, b):
    va, vb = val(a), val(b)
    return custom_op(
        va - vb, (a, b), lambda g: (_unbroadcast(g, va.shape), _unbroadcast(-g, vb.shape))
    )


def mul(a, b):
    va, vb = val(a), val(b)
    return custom_op(
        va * vb, (a, b), lambda g: (_unbroadcast(g * vb, va.shape), _unbroadcast(g * va, vb.shape))
    )


def log(a):
    va = val(a)
    return custom_op(np.log(va), (a,), lambda g: (g / va,))


def logistic(x, out=None):
    """The value of ``sigmoid`` on a plain array: 1 / (1 + exp(-x)) for
    x >= 0 and exp(x) / (1 + exp(x)) below, with one exp(-|x|) serving
    both branches, so that no exp overflows. copysign(x, -1) is -|x|,
    sign of zero and NaN included. ``out`` receives the result, as in
    numpy."""
    e = np.exp(np.copysign(x, -1.0))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def sigmoid(a):
    y = logistic(val(a))
    return custom_op(y, (a,), lambda g: (g * y * (1.0 - y),))


def clip_min(a, floor):
    va = val(a)
    return custom_op(np.maximum(va, floor), (a,), lambda g: (g * (va > floor),))


def softmax(a, axis):
    va = val(a)
    m = np.max(va, axis=axis, keepdims=True)
    e = np.exp(va - m)
    y = e / e.sum(axis=axis, keepdims=True)
    return custom_op(y, (a,), lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def sum_all(a):
    va = val(a)
    return custom_op(va.sum(), (a,), lambda g: (g * np.ones_like(va),))


def _scatter_add(va, index, g):
    out = np.zeros_like(va)
    np.add.at(out, index, g)
    return out


def take_at(a, index):
    """Fancy indexing with a tuple of integer index arrays."""
    va = val(a)
    index = tuple(np.asarray(ix, dtype=np.intp) for ix in index)
    return custom_op(va[index], (a,), lambda g: (_scatter_add(va, index, g),))


def concat(parts, axis=0):
    vals = [val(p) for p in parts]
    cuts = np.cumsum([v.shape[axis] for v in vals[:-1]])
    return custom_op(np.concatenate(vals, axis=axis), parts, lambda g: np.split(g, cuts, axis=axis))


def custom_op(value, parents, vjp):
    """The one place that decides whether an op builds a graph node: a
    Var holding value, linked to its parents, with ``vjp(g)`` returning
    one adjoint per parent in parent order, when one of the parents is a
    Var; else value as a plain float64 array, and vjp is dropped."""
    if any_var(parents):
        return Var(value, tuple(parents), vjp)
    return np.asarray(value, dtype=np.float64)

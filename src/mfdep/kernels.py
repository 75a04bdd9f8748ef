"""The mean-field message kernel, its VJP, and its multiply-add count.

The kernel computes the messages of each inference iteration from the
rank-r factors of the sibling and grandparent scores, never from their
(n+1)^3 cubes: each term is a few (n+1)x(n+1)x r matrix products, so one
iteration costs O(n^2 r) time and O(n (n + r)) memory.

Conventions: ``q`` is an (n+1)x(n+1) matrix with ``q[i, j]`` the current
belief that word j attaches to head i (column 0 and the diagonal are all
zeros: the root has no head, and no word heads itself). A score cube is
given by its factors a, b, c, three (n+1) x r matrices:

    s[i, j, k] = sum_r a[i, r] b[j, r] c[k, r]

on the cells that hold a valid pair or chain (j, k >= 1 and i, j, k
pairwise distinct; ``scorer.sib_mask``); its other cells are 0 whatever
the factors give. ``sib[i, j, k]`` scores the edge pair {i->j, i->k} and
``gp[i, j, k]`` the chain i->j->k. The message into candidate edge (i, j)
sums, over third words k distinct from i and j,

    q[i,k]*(sib[i,j,k] + sib[i,k,j]) + q[j,k]*gp[i,j,k] + q[k,i]*gp[k,i,j]

Both orientations of a sibling pair couple the same two edges, and the
kernel reads both, as the oracle does. With A, B, C the sibling factors,
A', B', C' the grandparent ones, ``*`` the elementwise product and ``@``
the matrix product, that is

    (A * (q@C)) @ B^T + (A * (q@B)) @ C^T - 2 q * D
    + A' @ (B' * (q@C'))^T + ((q^T@A') * B') @ C'^T - q^T * D'

The sums over all k drop k = 0 and k = i (or k = j) by the zeros of q;
the correction matrices remove the one invalid k left in each sum:
D[i, j] = sib[i, j, j] (k = j in both sibling orientations) and
D'[i, j] = gp[i, j, i] + gp[j, i, j] (the 2-cycles k = i and k = j of the
chains). ``couplings`` computes D = A (B*C)^T and D' = E + E^T, with
E = (A'*C') B'^T, once per MFVI call. On a cell that is no candidate edge
the message is whatever the products give; the decoder's updates mask
those cells, and pass them an adjoint of 0.

Both directions take any number of leading axes, the same on every
operand: a stack of B sentences of one length is a (B, n+1, n+1) ``q``
with (B, 3, n+1, r) factor blocks, and each row of the result is
bit-identical to that sentence's own call. Below n of about 15 a stack
costs a fraction of B calls, which are mostly numpy dispatch.

The kernel reads and returns plain arrays; ``decoder`` wraps it as one
``autodiff.custom_op``, so plain operands give plain messages and no
graph node.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


def backend_name():
    """Name of the kernel implementation, for benchmark records."""
    return "numpy"


def _t(x):
    return np.swapaxes(x, -1, -2)


class Coupling(NamedTuple):
    """The kernel's operand for one score cube in one MFVI call: its
    factors a, b, c, each (..., n+1, r), its correction matrix d,
    (..., n+1, n+1), and ``saved``, the list into which each
    ``messages_forward`` call puts the products of q that
    ``messages_backward`` reads, so that they are not computed twice."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    saved: list


def couplings(sib, gp):
    """The sibling and the grandparent ``Coupling`` of one MFVI call from
    their (..., 3, n+1, r) factor blocks: a, b, c stacked on axis -3."""
    a, b, c = np.moveaxis(sib, -3, 0)
    ga, gb, gc = np.moveaxis(gp, -3, 0)
    e = (ga * gc) @ _t(gb)  # e[i, j] = gp[i, j, i]
    return Coupling(a, b, c, a @ _t(b * c), []), Coupling(ga, gb, gc, e + _t(e), [])


def messages_forward(q, sib, gp):
    qt = _t(q)
    a, b, c, d, saved = sib
    qc, qb = q @ c, q @ b
    m = (a * qc) @ _t(b)
    m += (a * qb) @ _t(c)
    m -= 2.0 * (q * d)
    saved[:] = qc, qb
    a, b, c, d, saved = gp
    qc, qta = q @ c, qt @ a
    m += a @ _t(b * qc)
    m += (qta * b) @ _t(c)
    m -= qt * d
    saved[:] = qc, qta
    return m


def messages_backward(dm, q, sib, gp):
    """(dq, dsib, dgp): the adjoints of q and of the two (..., 3, n+1, r)
    factor blocks for the adjoint dm of the messages, from the products
    that ``messages_forward`` saved. Each block adjoint is an array of its
    own; the correction matrices' share is included."""
    qt, dmt = _t(q), _t(dm)
    a, b, c, d, (qc, qb) = sib
    gb, gc = dm @ b, dm @ c
    gba, gca = gb * a, gc * a
    dq = gba @ _t(c)
    dq += gca @ _t(b)
    dq -= 2.0 * (dm * d)
    h = -2.0 * (dm * q)  # the adjoint of d
    he = _t(h) @ a
    da = gb * qc
    da += gc * qb
    da += h @ (b * c)
    db = dmt @ (a * qc)
    db += qt @ gca
    db += he * c
    dc = dmt @ (a * qb)
    dc += qt @ gba
    dc += he * b
    dsib = np.stack((da, db, dc), axis=-3)

    a, b, c, d, (qc, qta) = gp
    x = dmt @ a  # the adjoint of b * qc
    y = dm @ c  # the adjoint of qta * b
    p = x * b
    s = y * b
    dq += p @ _t(c)
    dq += a @ _t(s)
    dq -= dmt * d
    h = -(dm * qt)
    h += _t(h)  # the adjoint of e, symmetric as d is
    hb = h @ b
    da = dm @ (b * qc)
    da += q @ s
    da += hb * c
    db = x * qc
    db += y * qta
    db += h @ (a * c)
    dc = qt @ p
    dc += dmt @ (qta * b)
    dc += hb * a
    return dq, dsib, np.stack((da, db, dc), axis=-3)


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------


def closed_form_muladds(n):
    """Couplings the model evaluates in one message-passing iteration.

    (i, j) ranges over the n^2 candidate edges, k over the n-1 remaining
    indices, and each (i, j, k) visit is 3 couplings: sibling,
    grandparent and grandchild, the two orientations of a sibling pair
    counting as one. This counts the model's couplings, one multiply-add
    each as a dense cube kernel would spend, not the arithmetic of the
    factor kernel above, which is O(n^2 r).
    """
    return 3 * n * n * (n - 1)


def count_muladds(n):
    """Instrumented counterpart: walk the (i, j, k) visits of the message
    definition and count one multiply-add per coupling per visit, the
    model's couplings rather than the factor kernel's arithmetic."""
    n1 = n + 1
    count = 0
    for i in range(n1):
        for j in range(1, n1):
            if i == j:
                continue
            for k in range(n1):
                if k == i or k == j:
                    continue
                count += 3
    return count

"""The mean-field message kernel, its VJP, and its multiply-add count.

The message computation is the Theta(n^3) inner loop of each inference
iteration; both directions are numpy einsums over the score tensors.

Conventions: ``q`` is an (n+1)x(n+1) matrix with ``q[i, j]`` the current
belief that word j attaches to head i (column 0 is all zeros: the root
has no head). ``sib[i, j, k]`` scores the edge pair {i->j, i->k} and
``gp[i, j, k]`` the chain i->j->k. The message into candidate edge
(i, j) sums, over third words k distinct from i and j,

    q[i,k]*(sib[i,j,k] + sib[i,k,j]) + q[j,k]*gp[i,j,k] + q[k,i]*gp[k,i,j]

Both orientations of a sibling pair couple the same two edges; the kernel
reads both from ``sib`` as ``scorer.trilinear`` leaves it, as the oracle does.

Precondition: ``sib`` and ``gp`` are 0 on every cell that holds no valid
pair or chain (j = 0, k = 0, or two of i, j, k equal; ``scorer.sib_mask``),
as ``scorer.trilinear`` leaves them. The einsums then sum over all k, the
terms with k = i or k = j being 0, and no mask is built or applied: the
message on a cell that is no candidate edge is a sum of signed zeros, and
``messages_backward`` passes the adjoint on such a cell to dq only
through those zeros, and to dsib and dgp only on cells that are not valid
either. It returns dsib and dgp on invalid cells too: they are the
derivatives of the unrestricted sums, and ``trilinear`` zeroes them.

Both directions take any number of leading axes, the same on every
operand: a stack of B sentences of one length is a (B, n+1, n+1) ``q``
with (B, n+1, n+1, n+1) cubes, and each row of the result is
bit-identical to that sentence's own call. Below n of about 15 a stack
costs a fraction of B calls, which are mostly numpy dispatch.
"""
from __future__ import annotations

import numpy as np


def backend_name():
    """Name of the kernel implementation, for benchmark records."""
    return "numpy"


def messages_forward(q, sib, gp):
    t1 = np.einsum("...ik,...ijk->...ij", q, sib)
    t1 += np.einsum("...ik,...ikj->...ij", q, sib)
    t2 = np.einsum("...jk,...ijk->...ij", q, gp)
    t3 = np.einsum("...ki,...kij->...ij", q, gp)
    return t1 + t2 + t3


def messages_backward(dm, q, sib, gp):
    dq = np.einsum("...ij,...ijk->...ik", dm, sib)
    dq += np.einsum("...ij,...ikj->...ik", dm, sib)
    dq += np.einsum("...ij,...ijk->...jk", dm, gp)
    dq += np.einsum("...ij,...kij->...ki", dm, gp)
    dsib = dm[..., :, :, None] * q[..., :, None, :]
    dsib += np.swapaxes(dsib, -1, -2)
    dgp = dm[..., :, :, None] * q[..., None, :, :]
    dgp += q[..., :, :, None] * dm[..., None, :, :]
    return dq, dsib, dgp


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------


def closed_form_muladds(n):
    """Multiply-adds executed by one message-passing iteration.

    (i, j) ranges over the n^2 candidate edges, k over the n-1 remaining
    indices, and each (i, j, k) visit performs 3 multiply-adds: one per
    coupling (sibling, grandparent, grandchild), the two orientations of
    a sibling pair counting as one coupling.
    """
    return 3 * n * n * (n - 1)


def count_muladds(n):
    """Instrumented counterpart: walk the kernel's loop structure and
    count one multiply-add per coupling per (i, j, k) visit."""
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

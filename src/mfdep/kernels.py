"""The mean-field message kernel, its VJP, and its multiply-add count.

The message computation is the Theta(n^3) inner loop of each inference
iteration; both directions are numpy einsums over masked score tensors.

Conventions: ``q`` is an (n+1)x(n+1) matrix with ``q[i, j]`` the current
belief that word j attaches to head i (column 0 is all zeros: the root
has no head). ``sib[i, j, k]`` scores the edge pair {i->j, i->k} and
``gp[i, j, k]`` the chain i->j->k. The message into candidate edge
(i, j) sums, over third words k distinct from i and j,

    q[i,k]*sib[i,j,k] + q[j,k]*gp[i,j,k] + q[k,i]*gp[k,i,j]
"""
from __future__ import annotations

import functools

import numpy as np


def backend_name():
    """Name of the kernel implementation, for benchmark records."""
    return "numpy"


_MASK_CACHE_SIZE = 8  # masks are 2*(n+1)^3 floats; a sentence reuses one size


@functools.lru_cache(maxsize=_MASK_CACHE_SIZE)
def _masks(n1):
    """Per-size constant masks, cached for the most recent sizes.

    pair[i,j]: candidate edge i->j (dependent j >= 1, i != j).
    k3[i,j,k]: third index differs from the first two.
    k1[k,i,j]: first index differs from the last two.
    """
    idx = np.arange(n1)
    pair = (idx[None, :] >= 1) & (idx[:, None] != idx[None, :])
    a0 = idx[:, None, None]
    a1 = idx[None, :, None]
    a2 = idx[None, None, :]
    k3 = ((a2 != a0) & (a2 != a1)).astype(np.float64)
    k1 = ((a0 != a1) & (a0 != a2)).astype(np.float64)
    return pair.astype(np.float64), k3, k1


def messages_forward(q, sib, gp):
    pair, k3, k1 = _masks(q.shape[0])
    t1 = np.einsum("ik,ijk->ij", q, sib * k3)
    t2 = np.einsum("jk,ijk->ij", q, gp * k3)
    t3 = np.einsum("ki,kij->ij", q, gp * k1)
    return (t1 + t2 + t3) * pair


def messages_backward(dm, q, sib, gp):
    pair, k3, k1 = _masks(q.shape[0])
    dmp = dm * pair
    sibm = sib * k3
    gpm = gp * k3
    gp1 = gp * k1
    dq = np.einsum("ij,ijk->ik", dmp, sibm)
    dq += np.einsum("ij,ijk->jk", dmp, gpm)
    dq += np.einsum("ij,kij->ki", dmp, gp1)
    dsib = dmp[:, :, None] * q[:, None, :] * k3
    dgp = dmp[:, :, None] * q[None, :, :] * k3
    dgp += q[:, :, None] * dmp[None, :, :] * k1
    return dq, dsib, dgp


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------


def closed_form_muladds(n):
    """Multiply-adds executed by one message-passing iteration.

    (i, j) ranges over the n^2 candidate edges, k over the n-1 remaining
    indices, and each (i, j, k) visit performs 3 multiply-adds.
    """
    return 3 * n * n * (n - 1)


def count_muladds(n):
    """Instrumented counterpart: walk the kernel's loop structure and
    count one unit per executed multiply-add."""
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

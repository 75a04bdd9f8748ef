"""Hot numeric kernels for mean-field message passing.

The message computation is the Theta(n^3) inner loop of each inference
iteration. Two interchangeable backends are provided:

* a numba ``@njit`` backend (default when numba imports cleanly), and
* a pure-numpy einsum backend.

Set the environment variable ``MFDEP_NO_NUMBA=1`` before import to force
the numpy path. ``backend_name()`` reports which one is active.

Conventions: ``q`` is an (n+1)x(n+1) matrix with ``q[i, j]`` the current
belief that word j attaches to head i (column 0 is all zeros: the root
has no head). ``sib[i, j, k]`` scores the edge pair {i->j, i->k} and
``gp[i, j, k]`` the chain i->j->k. The message into candidate edge
(i, j) sums, over third words k distinct from i and j,

    q[i,k]*sib[i,j,k] + q[j,k]*gp[i,j,k] + q[k,i]*gp[k,i,j]
"""
from __future__ import annotations

import functools
import os

import numpy as np

_FORCE_NUMPY = os.environ.get("MFDEP_NO_NUMBA", "") not in ("", "0")

if not _FORCE_NUMPY:
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        _HAVE_NUMBA = False
else:
    _HAVE_NUMBA = False


def backend_name():
    return "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------

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


def _messages_forward_numpy(q, sib, gp):
    pair, k3, k1 = _masks(q.shape[0])
    t1 = np.einsum("ik,ijk->ij", q, sib * k3)
    t2 = np.einsum("jk,ijk->ij", q, gp * k3)
    t3 = np.einsum("ki,kij->ij", q, gp * k1)
    return (t1 + t2 + t3) * pair


def _messages_backward_numpy(dm, q, sib, gp):
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
# numba backend
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def _messages_forward_numba(q, sib, gp):
        n1 = q.shape[0]
        m = np.zeros((n1, n1))
        for i in range(n1):
            for j in range(1, n1):
                if i == j:
                    continue
                acc = 0.0
                for k in range(n1):
                    if k == i or k == j:
                        continue
                    acc += q[i, k] * sib[i, j, k]
                    acc += q[j, k] * gp[i, j, k]
                    acc += q[k, i] * gp[k, i, j]
                m[i, j] = acc
        return m

    @njit(cache=True)
    def _messages_backward_numba(dm, q, sib, gp):
        n1 = q.shape[0]
        dq = np.zeros((n1, n1))
        dsib = np.zeros((n1, n1, n1))
        dgp = np.zeros((n1, n1, n1))
        for i in range(n1):
            for j in range(1, n1):
                if i == j:
                    continue
                g = dm[i, j]
                if g == 0.0:
                    continue
                for k in range(n1):
                    if k == i or k == j:
                        continue
                    dq[i, k] += g * sib[i, j, k]
                    dsib[i, j, k] += g * q[i, k]
                    dq[j, k] += g * gp[i, j, k]
                    dgp[i, j, k] += g * q[j, k]
                    dq[k, i] += g * gp[k, i, j]
                    dgp[k, i, j] += g * q[k, i]
        return dq, dsib, dgp


def messages_forward(q, sib, gp):
    if _HAVE_NUMBA:
        return _messages_forward_numba(q, sib, gp)
    return _messages_forward_numpy(q, sib, gp)


def messages_backward(dm, q, sib, gp):
    if _HAVE_NUMBA:
        return _messages_backward_numba(dm, q, sib, gp)
    return _messages_backward_numpy(dm, q, sib, gp)


# Both backends exposed by name so the benchmark can compare them.
def messages_forward_numpy(q, sib, gp):
    return _messages_forward_numpy(q, sib, gp)


def messages_forward_numba(q, sib, gp):
    if not _HAVE_NUMBA:
        raise RuntimeError("numba backend unavailable (MFDEP_NO_NUMBA set or numba missing)")
    return _messages_forward_numba(q, sib, gp)


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

"""Exact brute-force references for marginals, best trees and gradients.

Only usable at toy sizes; every routine refuses inputs beyond its hard
guard instead of silently grinding. All enumeration happens in log space.
"""
from __future__ import annotations

import itertools

import numpy as np

from .scorer import Factors
from .tree import is_tree


def _logsumexp(a, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else float(out.ravel()[0])


def _head_assignments(n):
    """All head assignments as a (K, n) array; column j-1 is the head of
    word j, ranging over 0..n minus the self index."""
    choices = [[i for i in range(n + 1) if i != j] for j in range(1, n + 1)]
    return np.array(list(itertools.product(*choices)), dtype=np.intp)


def _pair_log_potential(s_sib, s_gp, hj, hl, j, l):
    """log phi_p for the unordered word pair {j, l} (j < l) under heads
    hj, hl (vectorized over assignments).

    Head equality triggers the sibling part; the sibling scores hold
    both orientations of a sibling pair, and message passing consumes
    both, so the exact model counts both ordered entries.
    Chains contribute the single oriented grandparent entry.
    """
    out = np.zeros(hj.shape, dtype=np.float64)
    m = hj == hl
    if m.any():
        out[m] += s_sib[hj[m], j, l] + s_sib[hj[m], l, j]
    m = hl == j
    if m.any():
        out[m] += s_gp[hj[m], j, l]
    m = hj == l
    if m.any():
        out[m] += s_gp[hl[m], l, j]
    return out


def _dense_values(scores):
    """The edge, sibling and grandparent scores of one sentence as plain
    arrays; ValueError if the second-order scores are ``Factors``, which
    the enumeration would misread as cubes."""
    s_edge, s_sib, s_gp, _ = scores.values()
    if isinstance(s_sib, Factors) or isinstance(s_gp, Factors):
        raise ValueError("the oracle takes dense (n+1)^3 sibling and grandparent cubes, "
                         "not rank-r Factors")
    return s_edge, s_sib, s_gp


def exact_marginals_local(scores, max_n=6):
    """Enumerate all head assignments of the head-selection CRF and
    return exact marginals, shape n x (n+1) (row j-1 = dependent j)."""
    s_edge, s_sib, s_gp = _dense_values(scores)
    n = s_edge.shape[0] - 1
    if n > max_n:
        raise ValueError(f"n={n} too large for enumeration (max {max_n})")
    A = _head_assignments(n)
    deps = np.arange(1, n + 1)
    logw = s_edge[A, deps[None, :]].sum(axis=1)
    for j, l in itertools.combinations(range(1, n + 1), 2):
        logw += _pair_log_potential(s_sib, s_gp, A[:, j - 1], A[:, l - 1], j, l)
    logz = _logsumexp(logw)
    marg = np.zeros((n, n + 1))
    for j in range(1, n + 1):
        for i in range(n + 1):
            if i == j:
                continue
            sel = A[:, j - 1] == i
            if sel.any():
                marg[j - 1, i] = np.exp(_logsumexp(logw[sel]) - logz)
    return marg


def _candidate_edges(n):
    return [(i, j) for j in range(1, n + 1) for i in range(n + 1) if i != j]


def _single_log_weight(edges, present, s_edge, s_sib, s_gp):
    logw = 0.0
    chosen = [e for e, p in zip(edges, present) if p]
    for (i, j) in chosen:
        logw += s_edge[i, j]
    for (a, b), (c, d) in itertools.combinations(chosen, 2):
        if a == c:  # shared head: sibling part, both orientations
            logw += s_sib[a, b, d] + s_sib[a, d, b]
        if b == c:  # chain a -> b -> d
            logw += s_gp[a, b, d]
        if d == a:  # chain c -> d -> b
            logw += s_gp[c, d, b]
    return logw


def exact_marginals_single(scores, max_edges=14):
    """Enumerate all subsets of candidate edges for the binary-variable
    CRF; returns edge marginals, shape (n+1) x (n+1) ([i, j] = P(i->j))."""
    s_edge, s_sib, s_gp = _dense_values(scores)
    n = s_edge.shape[0] - 1
    edges = _candidate_edges(n)
    E = len(edges)
    if E > max_edges:
        raise ValueError(f"{E} candidate edges too many for enumeration (max {max_edges})")
    logws = np.empty(2**E)
    for b in range(2**E):
        present = [(b >> e) & 1 for e in range(E)]
        logws[b] = _single_log_weight(edges, present, s_edge, s_sib, s_gp)
    logz = _logsumexp(logws)
    marg = np.zeros((n + 1, n + 1))
    for e, (i, j) in enumerate(edges):
        sel = np.array([(b >> e) & 1 == 1 for b in range(2**E)])
        marg[i, j] = np.exp(_logsumexp(logws[sel]) - logz)
    return marg


_arbo_cache = {}


def all_arborescences(n, single_root=True, max_n=5):
    """All valid head arrays for n words, in lexicographic order (cached)."""
    if n > max_n:
        raise ValueError(f"n={n} too large for enumeration (max {max_n})")
    key = (n, single_root)
    if key not in _arbo_cache:
        out = []
        for heads in _head_assignments(n):
            if is_tree(heads, single_root):
                out.append(heads)
        _arbo_cache[key] = np.array(out, dtype=np.intp)
    return _arbo_cache[key]


def best_arborescence_bruteforce(weights, single_root=True, max_n=5):
    """Enumerate every head array, keep valid trees, return the maximum
    total weight one (lexicographically smallest on exact ties)."""
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0] - 1
    trees = all_arborescences(n, single_root, max_n)
    if len(trees) == 0:
        raise ValueError("no valid arborescence")
    deps = np.arange(1, n + 1)
    totals = weights[trees, deps[None, :]].sum(axis=1)
    # lexicographic enumeration + first-max argmax = smallest-head tie-break
    k = int(np.argmax(totals))
    return trees[k].copy(), float(totals[k])


def finite_diff_gradient(f, params, eps=1e-5):
    """Central-difference gradient of a scalar function.

    ``params`` is a dict name -> ndarray (mutated in place around each
    evaluation, restored afterwards). Returns dict name -> gradient.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            fp = f(params)
            flat[idx] = orig - eps
            fm = f(params)
            flat[idx] = orig
            gflat[idx] = (fp - fm) / (2.0 * eps)
        grads[name] = g
    return grads

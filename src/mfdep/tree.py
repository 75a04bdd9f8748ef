"""From posteriors to a valid dependency tree.

Argmax head selection first; the Chu-Liu/Edmonds maximum spanning
arborescence on log-posteriors is only run when the argmax graph is not
a tree (or violates the single-root constraint when enabled). Argmax
and label ties go to the smallest index. Among MST trees of exactly
equal weight the choice is fixed by the input but not always the
lexicographically smallest; results are deterministic either way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


@dataclass
class DependencyTree:
    heads: np.ndarray  # length n, heads[j-1] in 0..n
    labels: np.ndarray  # length n, label ids


@dataclass
class DecodeStats:
    sentences: int = 0
    mst_calls: int = 0


@dataclass
class DecodeConfig:
    single_root: bool = True


def _head_prob_matrix(q):
    """Accept a posterior object or a raw n x (n+1) matrix."""
    if hasattr(q, "head_probs"):
        return q.head_probs()
    return np.asarray(ad.val(q), dtype=np.float64)


def argmax_heads(q):
    """heads[j-1] = argmax_i Q_j(i); ties go to the smallest head index."""
    hp = _head_prob_matrix(q)
    return hp.argmax(axis=1).astype(np.intp)


def is_tree(heads):
    """True iff every node reaches the root with no cycles. O(n) walk."""
    n = len(heads)
    state = np.zeros(n + 1, dtype=np.int8)  # 0 unseen, 1 on path, 2 done
    state[0] = 2
    for start in range(1, n + 1):
        path = []
        node = start
        while state[node] == 0:
            state[node] = 1
            path.append(node)
            node = int(heads[node - 1])
            if node < 0 or node > n:
                return False
        if state[node] == 1:  # walked into the current path: cycle
            return False
        for p in path:
            state[p] = 2
    return True


_NO_TREE = {
    True: "no feasible single-root arborescence",
    False: "no feasible arborescence",
}


def _greedy_heads(w, single_root):
    """Best head of every word (index 0 is the root's own slot).

    With ``single_root`` each word takes its best non-root head and falls
    back to the root only when it has no finite non-root head. ``w`` must
    already be -inf on the diagonal and in column 0. Ties go to the
    smallest head index.
    """
    n1 = w.shape[0]
    deps = np.arange(1, n1)
    if single_root:
        heads = w[1:, 1:].argmax(axis=0) + 1
        heads[~np.isfinite(w[heads, deps])] = 0
    else:
        heads = w[:, 1:].argmax(axis=0)
    if not np.isfinite(w[heads, deps]).all():
        raise ValueError(_NO_TREE[single_root])
    return np.concatenate(([0], heads)).astype(np.intp)


def _find_cycle(heads):
    n1 = len(heads)
    color = np.zeros(n1, dtype=np.int8)
    color[0] = 2
    for start in range(1, n1):
        node = start
        path = []
        while color[node] == 0:
            color[node] = 1
            path.append(node)
            node = int(heads[node])
        if color[node] == 1:
            cyc = [node]
            cur = int(heads[node])
            while cur != node:
                cyc.append(cur)
                cur = int(heads[cur])
            return cyc
        for p in path:
            color[p] = 2
    return None


def _cle(w, single_root):
    """Maximum spanning arborescence rooted at node 0 on a dense matrix
    that is -inf on the diagonal and in column 0."""
    n1 = w.shape[0]
    heads = _greedy_heads(w, single_root)
    cycle = _find_cycle(heads)
    if cycle is None:
        if single_root and np.count_nonzero(heads[1:] == 0) != 1:
            raise ValueError(_NO_TREE[True])
        return heads
    cycle = np.sort(cycle)  # argmax over cycle nodes then favours the smallest
    in_cycle = np.zeros(n1, dtype=bool)
    in_cycle[cycle] = True
    outside = np.flatnonzero(~in_cycle)  # outside[0] == 0, the root
    cyc_id = len(outside)  # the contracted node gets the last index

    # u -> c replaces the cycle edge into c; v's best head inside the cycle
    enter = w[np.ix_(outside, cycle)] - w[heads[cycle], cycle]
    leave = w[np.ix_(cycle, outside)]
    wc = np.full((cyc_id + 1, cyc_id + 1), -np.inf)
    wc[:cyc_id, :cyc_id] = w[np.ix_(outside, outside)]
    wc[:cyc_id, cyc_id] = enter.max(axis=1)
    wc[cyc_id, :cyc_id] = leave.max(axis=0)

    sub = _cle(wc, single_root)

    heads_out = np.empty(n1, dtype=np.intp)
    heads_out[cycle] = heads[cycle]
    u = sub[cyc_id]
    heads_out[cycle[enter[u].argmax()]] = outside[u]
    expand = np.append(outside, -1)[sub[:cyc_id]]  # -1: head is the cycle
    from_cycle = expand < 0
    expand[from_cycle] = cycle[leave.argmax(axis=0)][from_cycle]
    heads_out[outside] = expand
    return heads_out


def tree_weight(weights, heads):
    return float(sum(weights[int(heads[j - 1]), j] for j in range(1, len(heads) + 1)))


def chu_liu_edmonds(weights, single_root=True):
    """Maximum-weight spanning arborescence; returns heads (length n).

    ``weights[i, j]`` scores the edge i -> j, with node 0 the root; -inf
    marks a missing edge. Raises ``ValueError`` when no arborescence of
    finite weight exists.

    With ``single_root`` the root gets exactly one child, in the same
    single contraction pass as the unconstrained problem (Zmigrod, Vieira
    & Cotterell, "Please Mind the Root", EMNLP 2020, after Gabow & Tarjan
    1984): the greedy step takes every word's best non-root head, so root
    edges enter only through a contracted cycle's adjusted entering
    weights, or for a word that has no other head. An acyclic greedy
    graph with more than one root child then has no single-root tree.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n1 = weights.shape[0]
    if n1 < 2:
        raise ValueError("need at least one non-root node")
    w = weights.copy()
    w[:, 0] = -np.inf  # root has no head
    np.fill_diagonal(w, -np.inf)
    missing = np.flatnonzero(~np.isfinite(w[:, 1:]).any(axis=0))
    if missing.size:
        raise ValueError(f"no feasible head for node {missing[0] + 1}")
    return _cle(w, single_root)[1:].copy()


def assign_labels(p_label, heads):
    """labels[j-1] = argmax_l P[heads[j-1], j, l]; ties to smallest id."""
    p = np.asarray(ad.val(p_label), dtype=np.float64)
    n = len(heads)
    deps = np.arange(1, n + 1)
    return p[np.asarray(heads, dtype=np.intp), deps, :].argmax(axis=1).astype(np.intp)


def decode(posterior, p_label, config=None, stats=None):
    """argmax heads, MST fallback on log posteriors, then labels."""
    if config is None:
        config = DecodeConfig()
    hp = _head_prob_matrix(posterior)
    heads = argmax_heads(hp)
    ok = is_tree(heads)
    if ok and config.single_root and int(np.sum(heads == 0)) != 1:
        ok = False
    if stats is not None:
        stats.sentences += 1
    if not ok:
        with np.errstate(divide="ignore"):
            logq = np.log(hp.T)  # (n+1) x n -> pad to (n+1) x (n+1)
        n = hp.shape[0]
        # An underflowed probability still names a candidate edge. Every
        # finite log-probability is above -745, so at this floor a tree of
        # n finite edges beats any tree that uses a zero-probability edge.
        logq[np.isneginf(logq)] = -745.0 * (n + 1)
        w = np.full((n + 1, n + 1), -np.inf)
        w[:, 1:] = logq
        heads = chu_liu_edmonds(w, single_root=config.single_root)
        if stats is not None:
            stats.mst_calls += 1
    labels = assign_labels(p_label, heads)
    return DependencyTree(heads=np.asarray(heads), labels=labels)

"""From posteriors to a valid dependency tree.

Argmax head selection first; the Chu-Liu/Edmonds maximum spanning
arborescence on log-posteriors is only run when the argmax graph is not
a tree (or violates the single-root constraint when enabled). Argmax
ties go to the smallest head index. Among MST trees of exactly equal
weight the choice is fixed by the input but not always the
lexicographically smallest; results are deterministic either way.
Labels are no part of decoding: a parse scores them on the heads decoded
here (``trainer._parse_batch``), ties to the smallest label id.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DependencyTree:
    heads: np.ndarray  # length n, heads[j-1] in 0..n
    labels: np.ndarray  # length n, label ids
    mst: bool  # the argmax heads were no tree, so MST chose these


def argmax_heads(hp):
    """heads[j-1] = argmax_i hp[j-1, i] for the n x (n+1) head-probability
    matrix hp; ties go to the smallest head index."""
    return hp.argmax(axis=1).astype(np.intp)


def is_tree(heads, single_root=False):
    """True iff every head lies in 0..n, every node reaches the root with
    no cycles and, with ``single_root``, the root has exactly one child
    (or none in an empty sentence, which has no word to attach). O(n)
    walk."""
    padded = [0] + np.asarray(heads).tolist()  # a list walks faster than an array
    if min(padded) < 0 or max(padded) >= len(padded):
        return False
    if single_root and len(padded) > 1 and padded.count(0) != 2:  # padded[0] and one child
        return False
    return _find_cycle(padded) is None


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
    that is -inf on the diagonal and in column 0.

    Each pass contracts the smallest-index cycle of the greedy heads into
    one node, the last of a smaller matrix, until the greedy heads form a
    tree; the passes are then undone in reverse order. A pass keeps only
    what its expansion reads (the cycle, the nodes outside it, its greedy
    heads and, per outside node, the best cycle node to enter and to
    leave by), so memory stays O(n^2) at any number of contractions."""
    levels = []
    while True:
        heads = _greedy_heads(w, single_root)
        cycle = _find_cycle(heads)
        if cycle is None:
            break
        cycle = np.sort(cycle)  # argmax over cycle nodes then favours the smallest
        in_cycle = np.zeros(w.shape[0], dtype=bool)
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
        levels.append((cycle, outside, heads[cycle],
                       cycle[enter.argmax(axis=1)], cycle[leave.argmax(axis=0)]))
        w = wc
    if single_root and np.count_nonzero(heads[1:] == 0) != 1:
        raise ValueError(_NO_TREE[True])

    for cycle, outside, cycle_heads, entered, left in reversed(levels):
        cyc_id = len(outside)
        sub = heads
        heads = np.empty(len(outside) + len(cycle), dtype=np.intp)
        heads[cycle] = cycle_heads
        u = sub[cyc_id]
        heads[entered[u]] = outside[u]
        expand = np.append(outside, -1)[sub[:cyc_id]]  # -1: head is the cycle
        from_cycle = expand < 0
        expand[from_cycle] = left[from_cycle]
        heads[outside] = expand
    return heads


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


def decode(hp, single_root=True):
    """(heads, mst): the argmax heads of the n x (n+1) head-probability
    matrix hp (a posterior's ``head_probs()``), or, when they are no tree
    (``mst`` true), the MST on its logs. An empty sentence (n = 0)
    decodes to no heads."""
    heads = argmax_heads(hp)
    mst = not is_tree(heads, single_root)
    if mst:
        with np.errstate(divide="ignore"):
            logq = np.log(hp.T)  # (n+1) x n -> pad to (n+1) x (n+1)
        n = hp.shape[0]
        # An underflowed probability still names a candidate edge. Every
        # finite log-probability is above -745, so at this floor a tree of
        # n finite edges beats any tree that uses a zero-probability edge.
        logq[np.isneginf(logq)] = -745.0 * (n + 1)
        w = np.full((n + 1, n + 1), -np.inf)
        w[:, 1:] = logq
        heads = chu_liu_edmonds(w, single_root=single_root)
    return heads, mst

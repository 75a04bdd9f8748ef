import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfdep.autodiff as ad
from mfdep.oracle import best_arborescence_bruteforce
from mfdep.scorer import label_biaffine, label_distribution
from mfdep.tree import (
    argmax_heads,
    chu_liu_edmonds,
    decode,
    is_tree,
    tree_weight,
)


def test_argmax_heads_basic_and_tie():
    q = np.zeros((1, 3))
    q[0, [0, 2]] = [0.7, 0.3]
    assert argmax_heads(q).tolist() == [0]
    q[0, [0, 2]] = [0.5, 0.5]
    assert argmax_heads(q).tolist() == [0]


def test_argmax_heads_matches_naive_scan(rng):
    q = rng.uniform(size=(6, 7))
    got = argmax_heads(q)
    for j in range(6):
        assert got[j] == int(np.argmax(q[j]))


def test_is_tree_enumerated_n2():
    assert is_tree(np.array([0]))
    assert not is_tree(np.array([2, 1]))
    cases = {(0, 0): True, (0, 1): True, (2, 0): True, (2, 1): False,
             (0, 3): False, (-1, 0): False}  # a head out of 0..n
    for heads, ok in cases.items():
        assert is_tree(np.array(heads)) == ok


def test_is_tree_single_root_allows_one_root_child_and_the_empty_tree():
    assert is_tree(np.array([0, 0]))
    assert not is_tree(np.array([0, 0]), single_root=True)
    assert is_tree(np.array([0, 1]), single_root=True)
    assert is_tree(np.array([], dtype=np.intp), single_root=True)


def test_decode_empty_sentence_is_the_empty_tree():
    heads, mst = decode(np.zeros((0, 1)), single_root=True)
    assert heads.size == 0 and not mst


def test_is_tree_rejects_unreachable_cycle():
    # 1 -> 2 -> 3 -> 1 cycle with nothing attached to root
    assert not is_tree(np.array([3, 1, 2]))


def test_cle_simple_instance():
    w = np.full((3, 3), -np.inf)
    w[0, 1], w[0, 2], w[1, 2], w[2, 1] = 5.0, 1.0, 4.0, 3.0
    heads = chu_liu_edmonds(w, single_root=True)
    assert heads.tolist() == [0, 1]
    assert tree_weight(w, heads) == 9.0


def test_cle_breaks_cycle_by_contraction():
    w = np.full((3, 3), -np.inf)
    w[0, 1], w[0, 2], w[1, 2], w[2, 1] = 2.0, 1.0, 10.0, 10.0
    heads = chu_liu_edmonds(w, single_root=True)
    assert heads.tolist() == [0, 1]
    assert tree_weight(w, heads) == 12.0


def test_cle_single_node():
    w = np.array([[-np.inf, 0.0], [-np.inf, -np.inf]])
    assert chu_liu_edmonds(w).tolist() == [0]


@st.composite
def _sparse_int_weights(draw):
    """Small integer weights (many exact ties) with random missing edges."""
    n = draw(st.integers(1, 5))
    vals = draw(st.lists(st.integers(-2, 2), min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))
    missing = draw(st.lists(st.booleans(), min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))
    w = np.array(vals, dtype=np.float64).reshape(n + 1, n + 1)
    w[np.array(missing).reshape(n + 1, n + 1)] = -np.inf
    return w


@settings(max_examples=600, deadline=None, derandomize=True)
@given(w=_sparse_int_weights(), single_root=st.booleans())
def test_cle_matches_bruteforce_weight_with_ties_and_missing_edges(w, single_root):
    _, best = best_arborescence_bruteforce(w, single_root=single_root)
    if not np.isfinite(best):  # every tree uses a missing edge
        with pytest.raises(ValueError):
            chu_liu_edmonds(w, single_root=single_root)
        return
    heads = chu_liu_edmonds(w, single_root=single_root)
    assert is_tree(heads)
    # integer weights: sums are exact, so equality is the right test
    assert tree_weight(w, heads) == best
    if single_root:
        assert int(np.sum(heads == 0)) == 1


def test_cle_errors():
    with pytest.raises(ValueError):
        chu_liu_edmonds(np.zeros((1, 1)))
    w = np.full((3, 3), -np.inf)
    w[0, 1] = 1.0  # node 2 has no feasible head
    with pytest.raises(ValueError):
        chu_liu_edmonds(w)


@pytest.mark.parametrize("single_root", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cle_matches_bruteforce(n, single_root):
    for seed in range(60):
        rng = np.random.default_rng(1000 * n + seed)
        w = rng.normal(size=(n + 1, n + 1))
        w[:, 0] = -np.inf
        np.fill_diagonal(w, -np.inf)
        heads = chu_liu_edmonds(w, single_root=single_root)
        ref, total = best_arborescence_bruteforce(w, single_root=single_root)
        assert abs(tree_weight(w, heads) - total) < 1e-9
        assert heads.tolist() == ref.tolist()


def _greedy_two_cycles(n, seed):
    """Weights under which words 2t-1 and 2t are each other's best head,
    for every t: n/2 greedy 2-cycles to contract, one after another."""
    w = np.random.default_rng(seed).uniform(size=(n + 1, n + 1))
    for a in range(1, n, 2):
        w[a, a + 1] = w[a + 1, a] = 10.0
    return w


@pytest.mark.parametrize("single_root", [True, False])
def test_cle_on_greedy_two_cycles_matches_bruteforce(single_root):
    for n in (4, 5):
        for seed in range(20):
            w = _greedy_two_cycles(n, seed)
            heads = chu_liu_edmonds(w, single_root=single_root)
            ref, _ = best_arborescence_bruteforce(w, single_root=single_root)
            assert heads.tolist() == ref.tolist()


def test_cle_contracts_hundreds_of_cycles_in_a_loop_in_quadratic_memory(traced_peak):
    # n = 400 takes about 300 contractions: a CLE that recursed once per
    # contraction needed that many frames, and held every level's
    # matrices (153 MB); the loop keeps O(n) records per level
    n = 400
    w = _greedy_two_cycles(n, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    traced_peak()
    try:
        heads = chu_liu_edmonds(w)
    finally:
        sys.setrecursionlimit(limit)
    assert traced_peak() < 8 * w.nbytes
    assert is_tree(heads, single_root=True)


def test_dependent_constant_shift_leaves_argmax_tree_unchanged(rng):
    n = 4
    w = rng.normal(size=(n + 1, n + 1))
    base = chu_liu_edmonds(w, single_root=False)
    shifted = w.copy()
    shifted[:, 2] += 7.5
    assert chu_liu_edmonds(shifted, single_root=False).tolist() == base.tolist()


def _labels(cube, heads):
    """A parse's labels on decoded heads: the argmax over the label axis
    of ``label_biaffine``, ties to the smallest id, here on identity head
    and dependent rows, so that the score of label l on the edge h -> j
    is cube[h, j, l]."""
    n1 = cube.shape[0]
    rows = np.eye(n1)[None]
    s = label_biaffine(rows, rows, np.asarray(heads)[None], cube.transpose(2, 0, 1))
    return s[0].argmax(axis=-1)


def test_assign_labels():
    n = 3
    p = np.zeros((n + 1, n + 1, 1))
    assert _labels(p, [0, 1, 1]).tolist() == [0, 0, 0]
    p4 = np.zeros((n + 1, n + 1, 4))
    assert _labels(p4, [0, 1, 1]).tolist() == [0, 0, 0]  # ties go to the smallest id
    p4[0, 1, 2] = 1.0
    p4[1, 2, 3] = 1.0
    p4[1, 3, 1] = 1.0
    assert _labels(p4, [0, 1, 1]).tolist() == [2, 3, 1]


@pytest.mark.parametrize("seed", range(20))
def test_assign_labels_reads_scores_as_their_softmax(seed):
    # a parse labels by the scores, training reads their softmax: the
    # argmax of a word's label scores is that of its distribution
    rng = np.random.default_rng(seed)
    n, L, d = int(rng.integers(1, 8)), int(rng.integers(1, 6)), 3
    lh, ld = rng.normal(size=(1, n + 1, d)), rng.normal(size=(1, n + 1, d))
    heads = rng.integers(0, n + 1, size=(1, n))
    s = label_biaffine(lh, ld, heads, rng.normal(0.0, 3.0, size=(L, d, d)))
    probs = ad.val(label_distribution(s))
    assert s.argmax(axis=-1).tolist() == probs.argmax(axis=-1).tolist()


def test_assign_labels_matches_naive_scan(rng):
    n, L = 5, 6
    p = rng.uniform(size=(n + 1, n + 1, L))
    heads = np.array([0, 1, 1, 2, 3])
    got = _labels(p, heads)
    for j in range(1, n + 1):
        assert got[j - 1] == int(np.argmax(p[heads[j - 1], j]))


def _peaked_posterior(heads):
    n = len(heads)
    q = np.full((n, n + 1), 0.01)
    for j, h in enumerate(heads, start=1):
        q[j - 1, h] = 0.9
    q /= q.sum(axis=1, keepdims=True)
    return q


def test_decode_skips_mst_on_valid_tree():
    q = _peaked_posterior([0, 1, 1])
    heads, mst = decode(q, single_root=True)
    assert heads.tolist() == [0, 1, 1]
    assert not mst


def test_decode_invokes_mst_on_cycle():
    q = _peaked_posterior([2, 1])  # mutual cycle, nothing on root
    q[:, 0] = 0.05
    q /= q.sum(axis=1, keepdims=True)
    heads, mst = decode(q, single_root=True)
    assert mst
    assert is_tree(heads)


def test_decode_single_root_constraint_triggers_mst():
    q = _peaked_posterior([0, 0])  # two root children: a tree, but multi-root
    heads, mst = decode(q, single_root=True)
    assert mst
    assert int(np.sum(heads == 0)) == 1
    heads2, mst2 = decode(q, single_root=False)
    assert not mst2
    assert heads2.tolist() == [0, 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_decode_mst_path_matches_bruteforce_on_random_posteriors(n):
    for seed in range(125):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.01, 1.0, size=(n, n + 1))
        for j in range(n):
            q[j, j + 1] = 0.0
        q[:, 0] *= 0.2
        q /= q.sum(axis=1, keepdims=True)
        heads, mst = decode(q, single_root=True)
        assert is_tree(heads)
        if mst:
            with np.errstate(divide="ignore"):
                w = np.full((n + 1, n + 1), -np.inf)
                w[:, 1:] = np.log(q.T)
            ref, _ = best_arborescence_bruteforce(w, single_root=True)
            assert heads.tolist() == ref.tolist()


def test_decode_zero_root_probabilities_still_gives_single_root_tree():
    # underflow can leave every word with root probability exactly 0
    q = _peaked_posterior([2, 0, 2])
    q[:, 0] = 0.0
    q /= q.sum(axis=1, keepdims=True)
    heads, mst = decode(q, single_root=True)
    assert mst
    assert is_tree(heads)
    assert int(np.sum(heads == 0)) == 1
    # the one root child is the word whose best finite tree is the heaviest
    assert heads.tolist() == [2, 0, 2]

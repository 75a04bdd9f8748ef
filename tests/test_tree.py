import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scores
from mfdep.decoder import mfvi_local
from mfdep.oracle import best_arborescence_bruteforce
from mfdep.tree import (
    DecodeConfig,
    DecodeStats,
    argmax_heads,
    assign_labels,
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
    cases = {(0, 0): True, (0, 1): True, (2, 0): True, (2, 1): False}
    for heads, ok in cases.items():
        assert is_tree(np.array(heads)) == ok


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


def test_dependent_constant_shift_leaves_argmax_tree_unchanged(rng):
    n = 4
    w = rng.normal(size=(n + 1, n + 1))
    base = chu_liu_edmonds(w, single_root=False)
    shifted = w.copy()
    shifted[:, 2] += 7.5
    assert chu_liu_edmonds(shifted, single_root=False).tolist() == base.tolist()


def test_assign_labels():
    n = 3
    p = np.zeros((n + 1, n + 1, 1))
    assert assign_labels(p, np.array([0, 1, 1])).tolist() == [0, 0, 0]
    p4 = np.zeros((n + 1, n + 1, 4))
    p4[0, 1, 2] = 1.0
    p4[1, 2, 3] = 1.0
    p4[1, 3, 1] = 1.0
    assert assign_labels(p4, np.array([0, 1, 1])).tolist() == [2, 3, 1]


def test_assign_labels_matches_naive_scan(rng):
    n, L = 5, 6
    p = rng.uniform(size=(n + 1, n + 1, L))
    heads = np.array([0, 1, 1, 2, 3])
    got = assign_labels(p, heads)
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
    stats = DecodeStats()
    tree = decode(q, np.zeros((4, 4, 1)), DecodeConfig(single_root=True), stats)
    assert tree.heads.tolist() == [0, 1, 1]
    assert stats.mst_calls == 0


def test_decode_invokes_mst_on_cycle():
    q = _peaked_posterior([2, 1])  # mutual cycle, nothing on root
    q[:, 0] = 0.05
    q /= q.sum(axis=1, keepdims=True)
    stats = DecodeStats()
    tree = decode(q, np.zeros((3, 3, 1)), DecodeConfig(single_root=True), stats)
    assert stats.mst_calls == 1
    assert is_tree(tree.heads)


def test_decode_single_root_constraint_triggers_mst():
    q = _peaked_posterior([0, 0])  # two root children: a tree, but multi-root
    stats = DecodeStats()
    tree = decode(q, np.zeros((3, 3, 1)), DecodeConfig(single_root=True), stats)
    assert stats.mst_calls == 1
    assert int(np.sum(tree.heads == 0)) == 1
    stats2 = DecodeStats()
    tree2 = decode(q, np.zeros((3, 3, 1)), DecodeConfig(single_root=False), stats2)
    assert stats2.mst_calls == 0
    assert tree2.heads.tolist() == [0, 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_decode_mst_path_matches_bruteforce_on_random_posteriors(n):
    for seed in range(125):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.01, 1.0, size=(n, n + 1))
        for j in range(n):
            q[j, j + 1] = 0.0
        q[:, 0] *= 0.2
        q /= q.sum(axis=1, keepdims=True)
        stats = DecodeStats()
        tree = decode(q, rng.uniform(size=(n + 1, n + 1, 2)),
                      DecodeConfig(single_root=True), stats)
        assert is_tree(tree.heads)
        if stats.mst_calls:
            with np.errstate(divide="ignore"):
                w = np.full((n + 1, n + 1), -np.inf)
                w[:, 1:] = np.log(q.T)
            ref, _ = best_arborescence_bruteforce(w, single_root=True)
            assert tree.heads.tolist() == ref.tolist()


def test_decode_accepts_posterior_objects(rng):
    scores = random_scores(3, rng)
    post = mfvi_local(scores, T=2)
    tree = decode(post, np.zeros((4, 4, 1)))
    assert is_tree(tree.heads)


def test_decode_zero_root_probabilities_still_gives_single_root_tree():
    # underflow can leave every word with root probability exactly 0
    q = _peaked_posterior([2, 0, 2])
    q[:, 0] = 0.0
    q /= q.sum(axis=1, keepdims=True)
    stats = DecodeStats()
    tree = decode(q, np.zeros((4, 4, 1)), DecodeConfig(single_root=True), stats)
    assert stats.mst_calls == 1
    assert is_tree(tree.heads)
    assert int(np.sum(tree.heads == 0)) == 1
    # the one root child is the word whose best finite tree is the heaviest
    assert tree.heads.tolist() == [2, 0, 2]

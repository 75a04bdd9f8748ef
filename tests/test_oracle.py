import numpy as np
import pytest

from conftest import random_scores
from mfdep.oracle import (
    _candidate_edges,
    _logsumexp,
    _single_log_weight,
    all_arborescences,
    best_arborescence_bruteforce,
    exact_marginals_local,
    exact_marginals_single,
    finite_diff_gradient,
)
from mfdep.scorer import Factors, ScoreTensors, edge_mask
from mfdep.tree import is_tree


def zero_binary(n, rng):
    return ScoreTensors(
        s_edge=rng.normal(size=(n + 1, n + 1)) * edge_mask(n),
        s_sib=np.zeros((n + 1,) * 3),
        s_gp=np.zeros((n + 1,) * 3),
        s_label=np.zeros((n + 1, n + 1, 1)),
    )


def test_local_zero_binaries_factorizes(rng):
    n = 3
    scores = zero_binary(n, rng)
    marg = exact_marginals_local(scores)
    for j in range(1, n + 1):
        cand = [i for i in range(n + 1) if i != j]
        logits = scores.s_edge[cand, j]
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        np.testing.assert_allclose(marg[j - 1, cand], expect, atol=1e-12)


def test_local_single_word():
    scores = zero_binary(1, np.random.default_rng(0))
    marg = exact_marginals_local(scores)
    np.testing.assert_allclose(marg, [[1.0, 0.0]], atol=1e-15)


def test_local_normalizes_and_is_permutation_equivariant(rng):
    n = 3
    scores = random_scores(n, rng)
    marg = exact_marginals_local(scores)
    np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-12)
    perm = np.array([0, 2, 3, 1])
    permuted = ScoreTensors(
        s_edge=scores.s_edge[np.ix_(perm, perm)],
        s_sib=scores.s_sib[np.ix_(perm, perm, perm)],
        s_gp=scores.s_gp[np.ix_(perm, perm, perm)],
        s_label=scores.s_label[np.ix_(perm, perm)],
    )
    got = exact_marginals_local(permuted)
    # row j-1 of the permuted marginals describes dependent perm[j]
    for j in range(1, n + 1):
        np.testing.assert_allclose(got[j - 1], marg[perm[j] - 1, perm], atol=1e-12)


@pytest.mark.parametrize("field", ["s_sib", "s_gp"])
def test_the_oracle_refuses_factors(field, rng):
    # a (3, n+1, r) factor block would be read as s[i, j, k]; at n = 2 and
    # r = 3 it even has the shape of a cube
    scores = random_scores(2, rng)
    setattr(scores, field, Factors(rng.normal(size=(3, 3, 3))))
    for exact in (exact_marginals_local, exact_marginals_single):
        with pytest.raises(ValueError, match="dense .* cubes, not rank-r Factors"):
            exact(scores)


def test_local_refuses_large_n(rng):
    with pytest.raises(ValueError):
        exact_marginals_local(random_scores(7, rng))


def test_single_zero_binaries_is_sigmoid(rng):
    n = 2
    scores = zero_binary(n, rng)
    marg = exact_marginals_single(scores)
    expect = 1.0 / (1.0 + np.exp(-scores.s_edge)) * edge_mask(n)
    np.testing.assert_allclose(marg, expect, atol=1e-12)


def test_single_lone_zero_edge_is_half():
    scores = zero_binary(1, np.random.default_rng(0))
    scores.s_edge[:] = 0.0
    marg = exact_marginals_single(scores)
    np.testing.assert_allclose(marg[0, 1], 0.5, atol=1e-15)


def exact_marginals_single_alt(scores, max_edges=14):
    """Independently structured enumerator (recursive, edge-by-edge)
    used to cross-check exact_marginals_single."""
    if hasattr(scores, "values"):
        s_edge, s_sib, s_gp, _ = scores.values()
    else:
        s_edge, s_sib, s_gp = scores
    n = s_edge.shape[0] - 1
    edges = _candidate_edges(n)
    if len(edges) > max_edges:
        raise ValueError("too many candidate edges")

    def rec(k, chosen):
        if k == len(edges):
            present = [0] * len(edges)
            for c in chosen:
                present[c] = 1
            lw = _single_log_weight(edges, present, s_edge, s_sib, s_gp)
            yield chosen, lw
            return
        yield from rec(k + 1, chosen)
        yield from rec(k + 1, chosen + (k,))

    logz_terms = []
    per_edge = [[] for _ in edges]
    for chosen, lw in rec(0, ()):
        logz_terms.append(lw)
        for c in chosen:
            per_edge[c].append(lw)
    logz = _logsumexp(np.array(logz_terms))
    marg = np.zeros((n + 1, n + 1))
    for e, (i, j) in enumerate(edges):
        if per_edge[e]:
            marg[i, j] = np.exp(_logsumexp(np.array(per_edge[e])) - logz)
    return marg


def test_single_enumerators_agree(rng):
    scores = random_scores(2, rng)
    a = exact_marginals_single(scores)
    b = exact_marginals_single_alt(scores)
    assert a.min() >= 0.0 and a.max() <= 1.0
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_single_refuses_large_instances(rng):
    with pytest.raises(ValueError):
        exact_marginals_single(random_scores(4, rng))
    with pytest.raises(ValueError):
        exact_marginals_single_alt(random_scores(4, rng))


@pytest.mark.parametrize("single_root", [True, False])
def test_all_arborescences_are_valid_trees(single_root):
    trees = all_arborescences(3, single_root=single_root)
    seen = set()
    for heads in trees:
        assert is_tree(heads)
        if single_root:
            assert int(np.sum(heads == 0)) == 1
        seen.add(tuple(heads))
    assert len(seen) == len(trees)
    # Cayley-style counts for n = 3: 9 single-root, 16 total
    assert len(trees) == (9 if single_root else 16)


def test_bruteforce_tie_break_prefers_smaller_heads():
    w = np.zeros((3, 3))  # all trees tie at weight 0
    heads, total = best_arborescence_bruteforce(w, single_root=False)
    assert heads.tolist() == [0, 0] and total == 0.0


def test_finite_diff_linear_exact():
    w = np.array([2.0, -1.0, 0.5])
    params = {"x": np.array([1.0, 1.0, 1.0])}
    grads = finite_diff_gradient(lambda p: float(p["x"] @ w), params)
    np.testing.assert_allclose(grads["x"], w, atol=1e-10)
    np.testing.assert_allclose(params["x"], 1.0, atol=0)  # restored


def test_finite_diff_quadratic():
    params = {"t": np.array([3.0])}
    grads = finite_diff_gradient(lambda p: float(p["t"][0] ** 2), params, eps=1e-5)
    np.testing.assert_allclose(grads["t"], [6.0], atol=1e-8)

import numpy as np
import pytest

import mfdep.autodiff as ad
from conftest import random_scores
from mfdep.decoder import mfvi, mfvi_local, mfvi_single
from mfdep.oracle import finite_diff_gradient
from mfdep.scorer import ScoreTensors, edge_mask, sib_mask


def zero_binary_scores(n, rng, n_labels=2):
    return ScoreTensors(
        s_edge=rng.normal(size=(n + 1, n + 1)) * edge_mask(n),
        s_sib=np.zeros((n + 1,) * 3),
        s_gp=np.zeros((n + 1,) * 3),
        s_label=rng.normal(size=(n + 1, n + 1, n_labels)),
    )


def test_local_zero_binaries_is_softmax_fixed_point(rng):
    scores = zero_binary_scores(3, rng)
    post = mfvi_local(scores, T=3)
    q0 = ad.val(post.qs[0])
    for q in post.qs[1:]:
        assert np.array_equal(ad.val(q), q0)
    # and Q0 is the per-dependent softmax of s_edge over candidate heads
    for j in range(1, 4):
        cand = [i for i in range(4) if i != j]
        logits = scores.s_edge[cand, j]
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        np.testing.assert_allclose(q0[cand, j], expect, atol=1e-12)


def test_local_analytic_two_word_example():
    se = np.zeros((3, 3))
    se[0, 1] = 1.0
    se[1, 2] = 2.0
    scores = ScoreTensors(se * edge_mask(2), np.zeros((3,) * 3), np.zeros((3,) * 3),
                          np.zeros((3, 3, 1)))
    q = mfvi_local(scores, T=0).head_probs()
    e = np.e
    np.testing.assert_allclose(q[0, [0, 2]], [e / (e + 1), 1 / (e + 1)], atol=1e-4)
    np.testing.assert_allclose(q[1, [0, 1]], [0.1192, 0.8808], atol=1e-4)


def test_single_zero_binaries_is_sigmoid_fixed_point(rng):
    scores = zero_binary_scores(3, rng)
    post = mfvi_single(scores, T=3)
    expect = 1.0 / (1.0 + np.exp(-scores.s_edge)) * edge_mask(3)
    for q in post.qs:
        assert np.array_equal(ad.val(q), ad.val(post.qs[0]))
    np.testing.assert_allclose(ad.val(post.final), expect, atol=1e-12)


def test_single_analytic_sigmoid_value():
    se = np.full((3, 3), 2.0) * edge_mask(2)
    scores = ScoreTensors(se, np.zeros((3,) * 3), np.zeros((3,) * 3), np.zeros((3, 3, 1)))
    q = ad.val(mfvi_single(scores, T=3).final)
    np.testing.assert_allclose(q[edge_mask(2) == 1], 0.8808, atol=1e-4)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_local_normalization_every_iteration(n, rng):
    scores = random_scores(n, rng)
    post = mfvi_local(scores, T=3)
    for q in post.qs:
        np.testing.assert_allclose(ad.val(q)[:, 1:].sum(axis=0), 1.0, atol=1e-9)
        assert not ad.val(q)[:, 0].any()
        assert not np.diag(ad.val(q)).any()


def test_single_bounds_and_masking(rng):
    scores = random_scores(4, rng)
    post = mfvi_single(scores, T=3)
    for q in post.qs:
        v = ad.val(q)
        assert v.min() >= 0.0 and v.max() <= 1.0
        assert not v[edge_mask(4) == 0].any()


def test_first_order_consistency_as_binaries_shrink(rng):
    from mfdep.oracle import exact_marginals_local

    n = 3
    base = random_scores(n, rng)
    prev = None
    for eps in (1.0, 0.1, 0.01, 0.0):
        scores = ScoreTensors(base.s_edge, base.s_sib * eps, base.s_gp * eps,
                              base.s_label)
        diff = np.max(np.abs(mfvi_local(scores, T=3).head_probs()
                             - exact_marginals_local(scores)))
        if prev is not None:
            assert diff <= prev + 1e-9
        prev = diff
    assert prev <= 1e-12  # eps = 0: exact equality up to rounding


def test_permutation_equivariance(rng):
    n = 4
    scores = random_scores(n, rng)
    perm = np.array([0, 3, 1, 4, 2])  # pi(0) = 0
    permuted = ScoreTensors(
        s_edge=scores.s_edge[np.ix_(perm, perm)],
        s_sib=scores.s_sib[np.ix_(perm, perm, perm)],
        s_gp=scores.s_gp[np.ix_(perm, perm, perm)],
        s_label=scores.s_label[np.ix_(perm, perm)],
    )
    qa = ad.val(mfvi_local(scores, T=3).final)
    qb = ad.val(mfvi_local(permuted, T=3).final)
    np.testing.assert_allclose(qb, qa[np.ix_(perm, perm)], atol=1e-12)


def shift_check(scores, c, T, seed):
    """Shift every candidate-head score of each dependent by its own
    constant in [-c, c] and compare Local posteriors; softmax normalization
    makes them invariant. Returns the largest difference and the fraction
    of dependents whose argmax head agrees."""
    n = scores.n
    shifts = np.random.default_rng(seed).uniform(-c, c, size=n + 1)
    shifted = ScoreTensors(scores.s_edge + shifts[None, :] * edge_mask(n),
                           scores.s_sib, scores.s_gp, scores.s_label)
    qa = mfvi_local(scores, T=T).head_probs()
    qb = mfvi_local(shifted, T=T).head_probs()
    return (float(np.max(np.abs(qa - qb))),
            float(np.mean(qa.argmax(axis=1) == qb.argmax(axis=1))))


def test_scale_check_shift_invariance(rng):
    max_q_diff, argmax_agreement = shift_check(random_scores(4, rng), c=5.0, T=3, seed=1)
    assert max_q_diff <= 1e-12
    assert argmax_agreement == 1.0


def test_scale_check_sweep():
    worst = 0.0
    for seed in range(100):
        r = np.random.default_rng(seed)
        max_q_diff, argmax_agreement = shift_check(random_scores(3, r), c=3.0, T=2, seed=seed)
        worst = max(worst, max_q_diff)
        assert argmax_agreement == 1.0
    assert worst <= 1e-9


def test_variant_dispatch_forces_first_order(rng):
    scores = random_scores(3, rng)
    assert len(mfvi(scores, "local1o", T=3).qs) == 1
    assert len(mfvi(scores, "single1o").qs) == 1
    assert len(mfvi(scores, "local2o").qs) == 4
    with pytest.raises(ValueError):
        mfvi(scores, "global3o")
    with pytest.raises(ValueError):
        mfvi_local(scores, T=-1)


@pytest.mark.parametrize("variant", ["local", "single"])
def test_posterior_gradients_match_finite_differences(variant, rng):
    n = 3
    arrays = {
        "s_edge": rng.normal(size=(n + 1, n + 1)) * edge_mask(n),
        "s_sib": rng.normal(0, 0.25, (n + 1,) * 3) * sib_mask(n),
        "s_gp": rng.normal(0, 0.25, (n + 1,) * 3) * sib_mask(n),
    }
    w = rng.normal(size=(n + 1, n + 1))
    run = mfvi_local if variant == "local" else mfvi_single

    def forward():
        leaves = {k: ad.Var(v) for k, v in arrays.items()}
        scores = ScoreTensors(leaves["s_edge"], leaves["s_sib"], leaves["s_gp"],
                              np.zeros((n + 1, n + 1, 1)))
        post = run(scores, T=3)
        return ad.sum_all(ad.mul(post.final, w)), leaves

    out, leaves = forward()
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(forward()[0].value), arrays, eps=1e-6)
    for k, leaf in leaves.items():
        denom = np.maximum(1.0, np.abs(fd[k]))
        assert np.max(np.abs(leaf.grad - fd[k]) / denom) <= 1e-4, k


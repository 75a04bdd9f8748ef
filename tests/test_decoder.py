from dataclasses import replace

import numpy as np
import pytest

import mfdep.autodiff as ad
from conftest import cube_of, random_scores
from mfdep.decoder import mfvi, mfvi_local, mfvi_single
from mfdep.oracle import finite_diff_gradient
from mfdep.scorer import VARIANTS, Factors, ScoreTensors, edge_mask, sib_mask


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


@pytest.mark.parametrize("T", [0, 1, 2, 3])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_mfvi_alone_masks_the_non_candidate_edges(variant, T, rng):
    # the scorer leaves s_edge unmasked: every iterate is exactly 0 on column
    # 0 and the diagonal, bit-for-bit the masked s_edge's q elsewhere, and
    # those cells of s_edge get an adjoint of 0
    n = 5
    scores = random_scores(n, rng)
    full = rng.normal(size=(n + 1, n + 1))
    assert full.all()
    cand = edge_mask(n) == 1
    weights = rng.normal(size=(n + 1, n + 1))  # an adjoint on every cell of q
    runs = []
    for s_edge in (full, full * edge_mask(n)):
        s_edge = ad.Var(s_edge)
        qs = mfvi(replace(scores, s_edge=s_edge), variant, T).qs
        ad.backward(ad.sum_all(ad.mul(qs[-1], weights)))
        runs.append(([ad.val(q) for q in qs], s_edge.grad))
    (qs, grad), (masked_qs, masked_grad) = runs
    assert len(qs) == len(masked_qs) == 1 + (T if VARIANTS[variant].iterations else 0)
    for q, masked_q in zip(qs, masked_qs):
        assert not q[~cand].any()
        assert q[cand].tobytes() == masked_q[cand].tobytes()
    assert not grad[~cand].any()
    assert grad[cand].tobytes() == masked_grad[cand].tobytes()


def _stack(scores):
    return ScoreTensors(*(np.stack([getattr(sc, f) for sc in scores])
                          for f in ("s_edge", "s_sib", "s_gp")), s_label=None)


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("T", [0, 1, 2, 3])
@pytest.mark.parametrize("posterior", [mfvi_local, mfvi_single])
def test_mfvi_on_a_stack_matches_each_sentence_alone_bit_for_bit(posterior, T, n, rng):
    # B sentences of one length in one call: every iterate and the head
    # probabilities of each row are those of the sentence's own call, with
    # s_edge unmasked as the scorer leaves it
    scores = [replace(random_scores(n, rng), s_edge=rng.normal(size=(n + 1, n + 1)))
              for _ in range(5)]
    stacked = posterior(_stack(scores), T)
    alone = [posterior(sc, T) for sc in scores]
    assert len(stacked.qs) == T + 1
    for t, q in enumerate(stacked.qs):
        assert q.shape == (5, n + 1, n + 1)
        for b, post in enumerate(alone):
            assert q[b].tobytes() == post.qs[t].tobytes(), (t, b)
    probs = stacked.head_probs()
    assert probs.shape == (5, n, n + 1) and probs.flags.c_contiguous
    for b, post in enumerate(alone):
        assert probs[b].tobytes() == post.head_probs().tobytes()


@pytest.mark.parametrize("variant", ["local2o", "single2o"])
def test_a_factor_block_is_never_read_as_a_cube_of_its_shape(variant, rng):
    # at n = 2 and r = 3 a factor block and a cube are both (3, 3, 3): the
    # type, not the shape, says which one mfvi reads
    n = 2
    s_edge = rng.normal(size=(n + 1, n + 1))
    sib, gp = rng.normal(size=(2, 3, n + 1, 3))
    assert sib.shape == (n + 1,) * 3
    as_factors = ScoreTensors(s_edge, Factors(sib), Factors(gp), None)
    by_cube = ScoreTensors(s_edge, cube_of(sib), cube_of(gp), None)
    as_cubes = ScoreTensors(s_edge, sib * sib_mask(n), gp * sib_mask(n), None)
    got = mfvi(as_factors, variant, 3).head_probs()
    np.testing.assert_allclose(got, mfvi(by_cube, variant, 3).head_probs(), rtol=1e-12)
    assert np.abs(got - mfvi(as_cubes, variant, 3).head_probs()).max() > 1e-3


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("posterior", [mfvi_local, mfvi_single])
def test_mfvi_on_a_stack_of_factors_matches_each_sentence_alone_bit_for_bit(posterior, n, rng):
    # as parsing stacks them: B sentences' factor blocks on a leading axis
    scores = [ScoreTensors(rng.normal(size=(n + 1, n + 1)),
                           *(Factors(rng.normal(0.0, 0.5, (3, n + 1, 4))) for _ in range(2)),
                           None) for _ in range(5)]
    stacked = posterior(ScoreTensors(
        np.stack([sc.s_edge for sc in scores]),
        *(Factors(np.stack([getattr(sc, f).block for sc in scores])) for f in ("s_sib", "s_gp")),
        None), 3)
    for b, sc in enumerate(scores):
        for q, own in zip(stacked.qs, posterior(sc, 3).qs):
            assert q[b].tobytes() == own.tobytes()

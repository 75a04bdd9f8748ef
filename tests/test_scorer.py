import re

import numpy as np
import pytest

import mfdep.autodiff as ad
from mfdep.conllu import parse_conllu
from mfdep.decoder import mfvi
from mfdep.oracle import finite_diff_gradient
from mfdep.scorer import (
    ModelConfig,
    biaffine,
    build_vocabs,
    edge_mask,
    encode,
    gru,
    init_params,
    label_distribution,
    linear,
    load_embeddings,
    score_edges,
    score_grandparents,
    score_labels,
    score_sentence,
    score_siblings,
    sib_mask,
    trilinear,
)
from mfdep.trainer import sentence_loss
from mfdep.tree import decode

WORDS = ["the", "dog", "barks", "loudly", "cat"]
POS = ["DET", "NOUN", "VERB", "ADV", "NOUN"]


def make_sentence(n):
    rows = []
    for i in range(1, n + 1):
        w, p = WORDS[(i - 1) % 5], POS[(i - 1) % 5]
        head = 0 if i == 1 else 1
        rows.append(f"{i}\t{w}\t{w}\t{p}\t{p}\t_\t{head}\tl{i % 3}\t_\t_")
    return parse_conllu("\n".join(rows) + "\n\n")[0]


def make_params(seed=0, n_labels=3, **dims):
    cfg = ModelConfig(
        d_word=dims.get("d_word", 4),
        d_pos=dims.get("d_pos", 3),
        d_hidden=dims.get("d_hidden", 3),
        d_edge=dims.get("d_edge", 5),
        d_label=dims.get("d_label", 4),
        d_bin=dims.get("d_bin", 2),
    )
    sents = [make_sentence(5)]
    w2i, p2i, _ = build_vocabs(sents)
    return init_params(cfg, w2i, p2i, [f"l{k}" for k in range(n_labels)], seed=seed)


def test_encode_shapes():
    params = make_params()
    for n in (1, 4):
        H = encode(make_sentence(n), params)
        assert ad.val(H).shape == (n + 1, 2 * params.config.d_hidden)


def test_all_zero_weights_give_zero_representations():
    params = make_params()
    for k in params.tensors:
        params.tensors[k][:] = 0.0
    H = encode(make_sentence(3), params)
    assert not ad.val(H).any()


def test_zero_unary_weights_zero_edge_scores():
    params = make_params()
    params.tensors["U_edge"][:] = 0.0
    H = encode(make_sentence(3), params)
    assert not ad.val(score_edges(H, params)).any()


def test_identity_biaffine_is_bias_augmented_inner_product():
    params = make_params(d_word=2, d_pos=2, d_hidden=2, d_edge=4)
    enc = 2 * params.config.d_hidden
    for role in ("edge_head", "edge_dep"):
        params.tensors[f"{role}_W"] = np.eye(params.config.d_edge, enc)
        params.tensors[f"{role}_b"][:] = 0.0
    params.tensors["U_edge"] = np.eye(params.config.d_edge + 1)
    Hv = ad.val(encode(make_sentence(1), params))
    s = ad.val(score_edges(ad.Var(Hv), params))
    np.testing.assert_allclose(s[0, 1], Hv[0] @ Hv[1] + 1.0, atol=1e-12)


def test_zero_trilinear_weights_zero_triple_scores():
    params = make_params()
    params.tensors["W_sib"][:] = 0.0
    params.tensors["W_gp"][:] = 0.0
    H = encode(make_sentence(3), params)
    assert not ad.val(score_siblings(H, params)).any()
    assert not ad.val(score_grandparents(H, params)).any()


def test_constant_trilinear_closed_form():
    params = make_params(d_bin=1)
    params.tensors["W_sib"] = np.full((1, 1, 1), 2.0)
    params.tensors["bin_head_W"][:] = 0.0
    params.tensors["bin_dep_W"][:] = 0.0
    params.tensors["bin_head_b"][:] = 1.0
    params.tensors["bin_dep_b"][:] = 1.0
    n = 3
    H = encode(make_sentence(n), params)
    s = ad.val(score_siblings(H, params))
    np.testing.assert_allclose(s, 2.0 * sib_mask(n), atol=1e-12)


def test_trilinear_matches_naive_loops():
    params = make_params(seed=5)
    n = 3
    H = encode(make_sentence(n), params)
    Hv = ad.val(H)
    got = ad.val(score_siblings(H, params))
    W = params.tensors["W_sib"]
    gh = Hv @ params.tensors["bin_head_W"].T + params.tensors["bin_head_b"]
    gd = Hv @ params.tensors["bin_dep_W"].T + params.tensors["bin_dep_b"]
    d = params.config.d_bin
    naive = np.zeros((n + 1,) * 3)
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                acc = 0.0
                for a in range(d):
                    for b in range(d):
                        for c in range(d):
                            acc += W[a, b, c] * gh[i, a] * gd[j, b] * gd[k, c]
                naive[i, j, k] = acc
    np.testing.assert_allclose(got, naive * sib_mask(n), atol=1e-10)


def _trilinear_einsum(gh, gd, W):
    t1 = np.einsum("ia,abc->ibc", gh, W)
    t2 = np.einsum("ibc,jb->ijc", t1, gd)
    return np.einsum("ijc,kc->ijk", t2, gd)


def _valid_cells(m, n):
    """(m, n, n) bool: j, k >= 1 and i, j, k pairwise distinct."""
    i, j, k = np.ogrid[:m, :n, :n]
    return (j >= 1) & (k >= 1) & (i != j) & (i != k) & (j != k)


def test_trilinear_op_matches_einsum_at_default_dims():
    rng = np.random.default_rng(3)
    n, d = 40, ModelConfig().d_bin
    gh = rng.normal(size=(n + 1, d))
    gd = rng.normal(size=(n + 1, d))
    W = rng.normal(0.0, 0.25, size=(d, d, d))
    got = ad.val(trilinear(gh, gd, W))
    np.testing.assert_allclose(
        got, _trilinear_einsum(gh, gd, W) * sib_mask(n), rtol=0, atol=1e-9
    )
    assert not got[sib_mask(n) == 0].any()


def test_trilinear_zeroes_exactly_the_sib_mask_cells():
    rng = np.random.default_rng(8)
    for n in range(1, 30):
        gh = rng.uniform(0.5, 1.0, size=(n + 1, 2))
        gd = rng.uniform(0.5, 1.0, size=(n + 1, 2))
        s = trilinear(gh, gd, rng.uniform(0.5, 1.0, size=(2, 2, 2)))
        np.testing.assert_array_equal(s != 0, sib_mask(n) == 1)
        np.testing.assert_array_equal(sib_mask(n) == 1, _valid_cells(n + 1, n + 1))


@pytest.mark.parametrize("m,e,n,d", [(5, 3, 5, 3), (4, 2, 6, 3)])
def test_trilinear_op_gradient_non_square(m, e, n, d):
    # n != d (and m != n, e != d in the second case) so that a transposed
    # gd, dt1 or W reshape cannot pass by symmetry
    rng = np.random.default_rng(m * 100 + n)
    arrays = {
        "gh": rng.normal(size=(m, e)),
        "gd": rng.normal(size=(n, d)),
        "W": rng.normal(size=(e, d, d)),
    }
    weights = rng.normal(size=(m, n, n))

    def run():
        leaves = {k: ad.Var(v) for k, v in arrays.items()}
        s = trilinear(leaves["gh"], leaves["gd"], leaves["W"])
        return ad.sum_all(ad.mul(s, weights)), leaves

    out, leaves = run()
    np.testing.assert_allclose(
        out.value,
        np.sum(_trilinear_einsum(*arrays.values()) * _valid_cells(m, n) * weights),
        atol=1e-12,
    )
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(run()[0].value), arrays, eps=1e-6)
    for k in arrays:
        np.testing.assert_allclose(leaves[k].grad, fd[k], rtol=1e-6, atol=1e-6)


def _trilinear_vjp_einsum(gh, gd, W, g):
    """VJP of the unmasked trilinear form for the adjoint g."""
    return {
        "gh": np.einsum("ijk,abc,jb,kc->ia", g, W, gd, gd),
        "gd": np.einsum("ijk,abc,ia,kc->jb", g, W, gh, gd)
        + np.einsum("ijk,abc,ia,jb->kc", g, W, gh, gd),
        "W": np.einsum("ijk,ia,jb,kc->abc", g, gh, gd, gd),
    }


@pytest.mark.parametrize("m,e,n,d", [(5, 3, 5, 3), (4, 2, 6, 3)])
def test_masked_trilinear_gradient(m, e, n, d):
    # the op's gradient is the unmasked VJP of the adjoint with its invalid
    # cells zeroed: adjoint mass on invalid cells moves nothing
    rng = np.random.default_rng(m * 10 + n)
    arrays = {
        "gh": rng.normal(size=(m, e)),
        "gd": rng.normal(size=(n, d)),
        "W": rng.normal(size=(e, d, d)),
    }
    valid = _valid_cells(m, n)
    dense = rng.normal(size=(m, n, n))

    def grads(weights):
        leaves = {k: ad.Var(v) for k, v in arrays.items()}
        ad.backward(ad.sum_all(ad.mul(trilinear(*leaves.values()), weights)))
        return {k: v.grad for k, v in leaves.items()}

    for k, g in grads(dense * ~valid).items():
        assert not g.any(), k
    got = grads(dense)
    expect = _trilinear_vjp_einsum(*arrays.values(), dense * valid)
    fd = finite_diff_gradient(
        lambda p: float(np.sum(ad.val(trilinear(*arrays.values())) * dense)), arrays, eps=1e-6
    )
    for k in arrays:
        np.testing.assert_allclose(got[k], expect[k], rtol=1e-10, atol=1e-10, err_msg=k)
        np.testing.assert_allclose(got[k], fd[k], rtol=1e-6, atol=1e-6, err_msg=k)


def test_trilinear_op_second_backward_uses_new_adjoint():
    # the backward intermediates belong to one adjoint, also when W is a
    # plain array whose adjoint backward discards
    rng = np.random.default_rng(7)
    gh0, gd0 = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    W = rng.normal(size=(2, 2, 2))
    g1, g2 = rng.normal(size=(2, 3, 4, 4))

    gh, gd = ad.Var(gh0), ad.Var(gd0)
    s = trilinear(gh, gd, W)
    ad.backward(s, g1)
    for var in (s, gh, gd):
        var.grad = None
    ad.backward(s, g2)
    fresh_gh, fresh_gd = ad.Var(gh0), ad.Var(gd0)
    ad.backward(trilinear(fresh_gh, fresh_gd, W), g2)
    np.testing.assert_array_equal(gh.grad, fresh_gh.grad)
    np.testing.assert_array_equal(gd.grad, fresh_gd.grad)


def test_trilinear_weight_gradient_is_adopted_not_copied():
    # the VJP returns dW as an array of its own in W's shape, so backward
    # makes it W's grad as it is: the (d_bin^3) weight gradients are never
    # copied
    rng = np.random.default_rng(11)
    gh, gd = ad.Var(rng.normal(size=(4, 3))), ad.Var(rng.normal(size=(5, 2)))
    W = ad.Var(rng.normal(size=(3, 2, 2)))
    s = trilinear(gh, gd, W)
    returned = []
    vjp = s._vjp

    def recording_vjp(g):
        adjoints = vjp(g)
        returned.append(adjoints[2])
        return adjoints

    s._vjp = recording_vjp
    ad.backward(s, rng.normal(size=(4, 5, 5)))
    assert W.grad is returned[0]
    assert W.grad.base is None and W.grad.shape == (3, 2, 2)


def _gru_reference(A, U, reverse):
    """One direction of the recurrence written out step by step, with the
    arithmetic of the GRU built from elementwise autodiff ops."""
    def sigmoid(x):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))

    (az, ar, ah), (uz, ur, uh) = A, U
    n1, dh = az.shape
    h = np.zeros(dh)
    out = np.zeros((n1, dh))
    for t in (range(n1 - 1, -1, -1) if reverse else range(n1)):
        z = sigmoid(az[t] + uz @ h)
        r = sigmoid(ar[t] + ur @ h)
        c = np.tanh(ah[t] + uh @ (r * h))
        h = (1.0 - z) * h + z * c
        out[t] = h
    return out


@pytest.mark.parametrize("views", [False, True])
@pytest.mark.parametrize("n1,dh", [(1, 3), (6, 24), (12, 100)])
def test_gru_op_matches_reference_loop(n1, dh, views):
    # views: the inputs are column blocks of one array and the recurrent
    # matrices transposed views, as non-contiguous as a caller may pass them
    # (the reference gets C-ordered copies of the matrices: BLAS rounds a
    # product with a transposed operand differently)
    rng = np.random.default_rng(n1 + dh)
    if views:
        P = rng.normal(size=(n1, 6 * dh))
        A = [P[:, k * dh:(k + 1) * dh] for k in range(6)]
        U = [rng.normal(0.0, 1.0 / np.sqrt(dh), size=(dh, dh)).T for _ in range(6)]
    else:
        A = [rng.normal(size=(n1, dh)) for _ in range(6)]
        U = [rng.normal(0.0, 1.0 / np.sqrt(dh), size=(dh, dh)) for _ in range(6)]
    got = gru(A, U)
    assert type(got) is np.ndarray
    Uc = [np.ascontiguousarray(u) for u in U]
    expect = np.concatenate(
        [_gru_reference(A[:3], Uc[:3], False), _gru_reference(A[3:], Uc[3:], True)], axis=1
    )
    np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("bw_only", [False, True])
@pytest.mark.parametrize("n1", [1, 3, 5])
def test_gru_op_gradient(n1, bw_only):
    # inputs reach the op through W x + b with d_in != dh, as in encode;
    # bw_only: the loss reads only the backward half, so every forward
    # parameter must get an exactly zero gradient
    d_in, dh = 4, 3
    rng = np.random.default_rng(10 * n1 + bw_only)
    arrays = {"X": rng.normal(size=(n1, d_in))}
    for k in (f"{d}{g}" for d in "fb" for g in "zrh"):
        arrays[f"W_{k}"] = rng.normal(size=(dh, d_in))
        arrays[f"b_{k}"] = rng.normal(size=dh)
        arrays[f"U_{k}"] = rng.normal(size=(dh, dh))
    weights = rng.normal(size=(n1, 2 * dh))
    if bw_only:
        weights[:, :dh] = 0.0

    def run():
        v = {k: ad.Var(a) for k, a in arrays.items()}
        keys = [f"{d}{g}" for d in "fb" for g in "zrh"]
        A = [linear(v["X"], v[f"W_{k}"], v[f"b_{k}"]) for k in keys]
        H = gru(A, [v[f"U_{k}"] for k in keys])
        return ad.sum_all(ad.mul(H, weights)), v

    out, leaves = run()
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(run()[0].value), arrays, eps=1e-6)
    for k in arrays:
        np.testing.assert_allclose(leaves[k].grad, fd[k], rtol=1e-6, atol=1e-8, err_msg=k)
        if bw_only and k[2:3] == "f":
            assert not leaves[k].grad.any(), k


def _labels_einsum(lh, ld, U):
    return np.einsum("ilb,jb->ijl", np.einsum("ia,lab->ilb", lh, U), ld)


def test_label_op_matches_einsum_at_default_dims():
    rng = np.random.default_rng(4)
    n, d, L = 40, ModelConfig().d_label + 1, 40
    lh = rng.normal(size=(n + 1, d))
    ld = rng.normal(size=(n + 1, d))
    U = rng.normal(size=(L, d, d))
    got = biaffine(lh, ld, U)
    np.testing.assert_allclose(got, _labels_einsum(lh, ld, U), rtol=0, atol=1e-9)


def test_label_op_gradient_non_square():
    # m != n, a != b and L >= 3, so that no transposed view passes by symmetry
    m, n, a, b, L = 4, 5, 3, 2, 3
    rng = np.random.default_rng(11)
    arrays = {
        "lh": rng.normal(size=(m, a)),
        "ld": rng.normal(size=(n, b)),
        "U": rng.normal(size=(L, a, b)),
    }
    weights = rng.normal(size=(m, n, L))

    def run():
        leaves = {k: ad.Var(v) for k, v in arrays.items()}
        s = biaffine(leaves["lh"], leaves["ld"], leaves["U"])
        return ad.sum_all(ad.mul(s, weights)), leaves

    out, leaves = run()
    np.testing.assert_allclose(
        out.value, np.sum(_labels_einsum(*arrays.values()) * weights), atol=1e-12
    )
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(run()[0].value), arrays, eps=1e-6)
    for k in arrays:
        np.testing.assert_allclose(leaves[k].grad, fd[k], rtol=1e-6, atol=1e-6, err_msg=k)


def _check_op_grad(op, arrays, expect, seed):
    """op(*leaves) equals expect, and the gradient of a random weighting of
    it matches central differences."""
    weights = np.random.default_rng(seed).normal(size=expect.shape)

    def run():
        leaves = {k: ad.Var(v) for k, v in arrays.items()}
        return ad.sum_all(ad.mul(op(*leaves.values()), weights)), leaves

    out, leaves = run()
    np.testing.assert_allclose(out.value, np.sum(expect * weights), atol=1e-12)
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(run()[0].value), arrays, eps=1e-6)
    for k in arrays:
        np.testing.assert_allclose(leaves[k].grad, fd[k], rtol=1e-6, atol=1e-6, err_msg=k)


def test_linear_op_gradient_non_square():
    # m, d_out and d_in all differ, so that no transposed operand passes
    rng = np.random.default_rng(12)
    x, W, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
    _check_op_grad(linear, {"x": x, "W": W, "b": b}, x @ W.T + b, seed=13)


def test_biaffine_with_a_matrix_gradient_non_square():
    # a 2-D U gives the (m, n) score of the one-label stack U[None]
    m, n, a, b = 4, 5, 3, 2
    rng = np.random.default_rng(14)
    lh, ld, U = rng.normal(size=(m, a)), rng.normal(size=(n, b)), rng.normal(size=(a, b))
    np.testing.assert_array_equal(biaffine(lh, ld, U), biaffine(lh, ld, U[None])[:, :, 0])
    _check_op_grad(biaffine, {"lh": lh, "ld": ld, "U": U}, lh @ U @ ld.T, seed=15)


def test_projection_and_biaffine_gradients_are_adopted(backward_copies):
    # linear and biaffine return fresh adjoints, the weight gradients in
    # their parameters' shapes: backward copies the seed and nothing else
    rng = np.random.default_rng(16)
    for U_shape in ((5, 5), (2, 5, 5)):
        x = ad.Var(rng.normal(size=(4, 3)))
        W, b = ad.Var(rng.normal(size=(5, 3))), ad.Var(rng.normal(size=5))
        U = ad.Var(rng.normal(size=U_shape))
        h = linear(x, W, b)
        backward_copies.clear()
        ad.backward(ad.sum_all(biaffine(h, h, U)))
        assert len(backward_copies) == 1
        for var in (x, W, b, U):
            assert var.grad.shape == var.value.shape


def test_scoring_plain_params_builds_no_graph_and_training_does():
    params = make_params(seed=6)
    sent = make_sentence(4)
    for name, s in vars(score_sentence(sent, params)).items():
        assert type(s) is np.ndarray, name
    loss, _, pv = sentence_loss(sent, params, "local2o", 2, 0.4)
    assert isinstance(loss, ad.Var)
    ad.backward(loss)
    assert set(pv) == set(params.tensors)
    for name, var in pv.items():
        assert var.grad is not None and var.grad.shape == params.tensors[name].shape, name
        assert np.any(var.grad != 0.0), name


@pytest.mark.parametrize("variant", ["local2o", "single2o"])
def test_parsing_plain_params_builds_no_graph(variant, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("graph bookkeeping on plain arrays")

    monkeypatch.setattr(ad.Var, "__init__", no_graph)
    params = make_params(seed=6)
    scores = score_sentence(make_sentence(4), params)
    post = mfvi(scores, variant, 2)
    tree = decode(post.head_probs(), label_distribution(scores.s_label))
    assert len(tree.heads) == 4 and len(tree.labels) == 4


def test_training_loss_builds_one_node_per_layer(monkeypatch):
    # Single2o at T = 3 on a 5-word sentence: every projection is one
    # linear node, edges one biaffine node and the sibling symmetrization
    # one node
    nodes = []
    init = ad.Var.__init__

    def counting_init(self, value, parents=(), vjp=None):
        init(self, value, parents, vjp)
        if vjp is not None:
            nodes.append(self)

    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    sentence_loss(make_sentence(5), make_params(seed=6), "single2o", 3, 0.07)
    assert len(nodes) == 63


def test_label_distribution_uniform_and_degenerate():
    params = make_params(n_labels=4)
    n = 2
    s = ad.Var(np.zeros((n + 1, n + 1, 4)))
    p = ad.val(label_distribution(s))
    np.testing.assert_allclose(p, 0.25, atol=1e-12)
    p1 = ad.val(label_distribution(ad.Var(np.zeros((n + 1, n + 1, 1)))))
    np.testing.assert_allclose(p1, 1.0, atol=1e-15)


def test_label_distribution_normalizes():
    params = make_params(n_labels=3, seed=2)
    H = encode(make_sentence(3), params)
    p = ad.val(label_distribution(score_labels(H, params)))
    np.testing.assert_allclose(p.sum(axis=2), 1.0, atol=1e-12)


def test_masked_cells_are_exactly_zero():
    params = make_params(seed=1)
    scores = score_sentence(make_sentence(4), params)
    n = 4
    assert not ad.val(scores.s_edge)[edge_mask(n) == 0].any()
    assert not ad.val(scores.s_sib)[sib_mask(n) == 0].any()
    assert not ad.val(scores.s_gp)[sib_mask(n) == 0].any()


def test_scores_deterministic():
    a = score_sentence(make_sentence(3), make_params(seed=7))
    b = score_sentence(make_sentence(3), make_params(seed=7))
    for x, y in zip(a.values(), b.values()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("tensor", ["U_edge", "gru_fw_z_W", "emb_word", "W_gp"])
def test_parameter_gradients_match_finite_differences(tensor):
    params = make_params(seed=3)
    sent = make_sentence(3)

    def run():
        pv = params.as_vars()
        scores = score_sentence(sent, params, pv)
        # scalar mixing every tensor path: edges + siblings + grandparents + labels
        total = ad.sum_all(scores.s_edge)
        total = ad.add(total, ad.sum_all(scores.s_sib))
        total = ad.add(total, ad.sum_all(scores.s_gp))
        total = ad.add(total, ad.sum_all(label_distribution(scores.s_label)))
        return total, pv

    out, pv = run()
    ad.backward(out)
    got = pv[tensor].grad
    assert got is not None

    sub = {tensor: params.tensors[tensor]}
    fd = finite_diff_gradient(lambda p: float(run()[0].value), sub, eps=1e-5)[tensor]
    denom = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(got - fd) / denom) <= 1e-4


def test_unary_and_binary_init_scales():
    stats = []
    for seed in range(30):
        p = make_params(seed=seed, d_edge=8, d_bin=6)
        stats.append((p.tensors["U_edge"].std(), p.tensors["W_sib"].std()))
    unary, binary = np.array(stats).mean(axis=0)
    assert 0.9 < unary < 1.1
    assert 0.22 < binary < 0.28


def test_load_embeddings(tmp_path):
    params = make_params(d_word=4)
    vec = tmp_path / "vectors.txt"
    vec.write_text("dog 1 2 3 4\nunseen 9 9 9 9\nbad 1 2\n", encoding="utf-8")
    loaded = load_embeddings(str(vec), params)
    assert loaded == 1
    np.testing.assert_allclose(
        params.tensors["emb_word"][params.word2id["dog"]], [1, 2, 3, 4]
    )


@pytest.mark.parametrize(
    "text,message",
    [
        ("dog 1 2 3 4\ncat 1 2 x 4\n", r", line 2: the vector of 'cat' holds a value"),
        ("dog 1 2 3 nan\n", r", line 1: the vector of 'dog' holds a value"),
        ("dog 1 2 3\ncat 1 2 3 4 5\n", r": no line holds a word and 4 numbers \(d_word = 4\)"),
        ("", r": no line holds a word and 4 numbers"),
    ],
)
def test_load_embeddings_names_the_file_and_what_it_cannot_read(tmp_path, text, message):
    params = make_params(d_word=4)
    vec = tmp_path / "vectors.txt"
    vec.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(vec)) + message):
        load_embeddings(str(vec), params)

import re

import numpy as np
import pytest

import mfdep.autodiff as ad
import mfdep.scorer as scorer
from conftest import cube_of, score_alone
from mfdep import kernels
from mfdep.conllu import parse_conllu
from mfdep.decoder import mfvi
from mfdep.oracle import finite_diff_gradient
from mfdep.scorer import (
    ModelConfig,
    ScoreTensors,
    biaffine,
    build_vocabs,
    edge_mask,
    encode,
    gru,
    init_params,
    label_biaffine,
    label_distribution,
    linear,
    load_embeddings,
    score_edges,
    score_grandparents,
    row_layers,
    score_labels,
    score_sentence,
    score_siblings,
    sib_mask,
    trilinear_factors,
)
from mfdep.trainer import parse_sentences, sentence_loss
from mfdep.tree import decode

WORDS = ["the", "dog", "barks", "loudly", "cat"]
POS = ["DET", "NOUN", "VERB", "ADV", "NOUN"]


def make_sentence(n, shift=0):
    rows = []
    for i in range(1, n + 1):
        w, p = WORDS[(i - 1 + shift) % 5], POS[(i - 1 + shift) % 5]
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
        H = encode([make_sentence(n)], params)
        assert ad.val(H).shape == (1, n + 1, 2 * params.config.d_hidden)
        H = encode([make_sentence(n), make_sentence(n, 1)], params)
        assert H.shape == (2, n + 1, 2 * params.config.d_hidden)


def test_all_zero_weights_give_zero_representations():
    params = make_params()
    for k in params.tensors:
        params.tensors[k][:] = 0.0
    H = encode([make_sentence(3)], params)
    assert not ad.val(H).any()


def test_zero_unary_weights_zero_edge_scores():
    params = make_params()
    params.tensors["U_edge"][:] = 0.0
    H = encode([make_sentence(3)], params)
    assert not ad.val(score_edges(row_layers(H, params).sentence(0).edge, params)).any()


def test_identity_biaffine_is_bias_augmented_inner_product():
    params = make_params(d_word=2, d_pos=2, d_hidden=2, d_edge=4)
    enc = 2 * params.config.d_hidden
    for role in ("edge_head", "edge_dep"):
        params.tensors[f"{role}_W"] = np.eye(params.config.d_edge, enc)
        params.tensors[f"{role}_b"][:] = 0.0
    params.tensors["U_edge"] = np.eye(params.config.d_edge + 1)
    Hv = encode([make_sentence(1)], params)[0]
    s = ad.val(score_edges(row_layers(ad.Var(Hv), params).edge, params))
    np.testing.assert_allclose(s[0, 1], Hv[0] @ Hv[1] + 1.0, atol=1e-12)


def _bins(H, params):
    """The bin head and dependent projections of H, with no dropout."""
    return [linear(H, params.tensors[f"bin_{r}_W"], params.tensors[f"bin_{r}_b"])
            for r in ("head", "dep")]


def _cube(factors):
    """The masked score cube that the factors of a ``Factors`` score."""
    return cube_of(ad.val(factors.block))


def test_zero_trilinear_weights_zero_triple_scores():
    params = make_params()
    params.tensors["W_sib"][:] = 0.0
    params.tensors["W_gp"][:] = 0.0
    bins = _bins(encode([make_sentence(3)], params), params)
    assert not ad.val(score_siblings(bins, params).block).any()
    assert not ad.val(score_grandparents(bins, params).block).any()


def test_constant_trilinear_closed_form():
    params = make_params(d_bin=1)
    params.tensors["W_sib"] = np.array([2.0, 1.0, 1.0]).reshape(3, 1, 1)
    params.tensors["bin_head_W"][:] = 0.0
    params.tensors["bin_dep_W"][:] = 0.0
    params.tensors["bin_head_b"][:] = 1.0
    params.tensors["bin_dep_b"][:] = 1.0
    n = 3
    H = encode([make_sentence(n)], params)[0]
    f = score_siblings(_bins(H, params), params)
    np.testing.assert_array_equal(f.block, [[[2.0]] * (n + 1), [[1.0]] * (n + 1),
                                            [[1.0]] * (n + 1)])
    np.testing.assert_allclose(_cube(f), 2.0 * sib_mask(n), atol=1e-12)


def test_trilinear_matches_naive_loops():
    params = make_params(seed=5)
    n = 3
    H = encode([make_sentence(n)], params)[0]
    Hv = ad.val(H)
    got = _cube(score_siblings(_bins(H, params), params))
    W = params.tensors["W_sib"]
    gh = Hv @ params.tensors["bin_head_W"].T + params.tensors["bin_head_b"]
    gd = Hv @ params.tensors["bin_dep_W"].T + params.tensors["bin_dep_b"]
    d = params.config.d_bin
    naive = np.zeros((n + 1,) * 3)
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                acc = 0.0
                for r in range(d):
                    a = b = c = 0.0
                    for x in range(d):
                        a += gh[i, x] * W[0, x, r]
                        b += gd[j, x] * W[1, x, r]
                        c += gd[k, x] * W[2, x, r]
                    acc += a * b * c
                naive[i, j, k] = acc
    np.testing.assert_allclose(got, naive * sib_mask(n), atol=1e-10)


def _dense(W):
    """The (d, d, d) trilinear tensor whose rank-r factors W stacks."""
    return np.einsum("ar,br,cr->abc", *W)


def _trilinear_einsum(gh, gd, W):
    """The unmasked trilinear form of the dense tensor of W."""
    t1 = np.einsum("ia,abc->ibc", gh, _dense(W))
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
    W = rng.normal(0.0, (0.0625 / d) ** (1 / 6), size=(3, d, d))
    f = trilinear_factors(gh, gd, W)
    assert type(f.block) is np.ndarray and f.block.shape == (3, n + 1, d)
    np.testing.assert_allclose(
        _cube(f), _trilinear_einsum(gh, gd, W) * sib_mask(n), rtol=0, atol=1e-9
    )
    # a stack of sentences on a leading axis gives each its own block, bit for bit
    other = rng.normal(size=(2, n + 1, d))
    stacked = trilinear_factors(np.stack((gh, other[0])), np.stack((gd, other[1])), W).block
    assert stacked.shape == (2, 3, n + 1, d)
    np.testing.assert_array_equal(stacked[0], f.block)
    np.testing.assert_array_equal(stacked[1], trilinear_factors(*other, W).block)


def test_trilinear_zeroes_exactly_the_sib_mask_cells():
    # MFVI on the factors, whose products are nonzero on every cell, runs
    # as on their cube with the sib_mask cells zeroed: the kernel gives
    # those cells no weight
    rng = np.random.default_rng(8)
    for n in range(1, 13):
        gh = rng.uniform(0.5, 1.0, size=(n + 1, 2))
        gd = rng.uniform(0.5, 1.0, size=(n + 1, 2))
        f = trilinear_factors(gh, gd, rng.uniform(0.5, 1.0, size=(3, 2, 2)))
        g = trilinear_factors(gh, gd, rng.uniform(0.5, 1.0, size=(3, 2, 2)))
        np.testing.assert_array_equal(_cube(f) != 0, sib_mask(n) == 1)
        np.testing.assert_array_equal(sib_mask(n) == 1, _valid_cells(n + 1, n + 1))
        s_edge = rng.normal(size=(n + 1, n + 1))
        for variant in ("local2o", "single2o"):
            got = mfvi(ScoreTensors(s_edge, f, g, None), variant, 3).head_probs()
            want = mfvi(ScoreTensors(s_edge, _cube(f), _cube(g), None), variant, 3).head_probs()
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("r,n,d", [(3, 5, 3), (2, 6, 3)])
def test_trilinear_op_gradient_non_square(r, n, d):
    # r != d in the second case, so that a transposed factor or reshape
    # cannot pass by symmetry; the three factors of W differ
    rng = np.random.default_rng(100 + n)
    arrays = {
        "gh": rng.normal(size=(n, d)),
        "gd": rng.normal(size=(n, d)),
        "W": rng.normal(size=(3, d, r)),
    }
    weights = rng.normal(size=(3, n, r))

    def run():
        leaves = {k: ad.Var(v) for k, v in arrays.items()}
        f = trilinear_factors(leaves["gh"], leaves["gd"], leaves["W"])
        return ad.sum_all(ad.mul(f.block, weights)), leaves

    out, leaves = run()
    gh, gd, W = arrays.values()
    np.testing.assert_allclose(
        out.value, np.sum(np.stack((gh @ W[0], gd @ W[1], gd @ W[2])) * weights), atol=1e-12)
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(run()[0].value), arrays, eps=1e-6)
    for k in arrays:
        np.testing.assert_allclose(leaves[k].grad, fd[k], rtol=1e-6, atol=1e-6)


def _trilinear_vjp_einsum(gh, gd, W, g):
    """VJP of the unmasked factored trilinear form for the adjoint g."""
    u, v, z = W

    def contract(spec, *ops):
        return np.einsum(spec, g, *ops, optimize=True)

    return {
        "gh": contract("ijk,ar,jb,br,kc,cr->ia", u, gd, v, gd, z),
        "gd": contract("ijk,ia,ar,br,kc,cr->jb", gh, u, v, gd, z)
        + contract("ijk,ia,ar,jb,br,cr->kc", gh, u, gd, v, z),
        "W": np.array((
            contract("ijk,ia,jb,br,kc,cr->ar", gh, gd, v, gd, z),
            contract("ijk,ia,ar,jb,kc,cr->br", gh, u, gd, gd, z),
            contract("ijk,ia,ar,jb,br,kc->cr", gh, u, gd, v, gd),
        )),
    }


@pytest.mark.parametrize("r,n,d", [(3, 5, 3), (2, 6, 3)])
def test_masked_trilinear_gradient(r, n, d):
    # the gradient of the sibling messages through the factors is the
    # unmasked VJP of the cube kernel's sibling adjoint with its invalid
    # cells zeroed: adjoint mass on invalid cells moves nothing
    rng = np.random.default_rng(10 * r + n)
    arrays = {
        "gh": rng.normal(size=(n + 1, d)),
        "gd": rng.normal(size=(n + 1, d)),
        "W": rng.normal(size=(3, d, r)),
    }
    q = rng.uniform(size=(n + 1, n + 1)) * edge_mask(n)
    dm = rng.normal(size=(n + 1, n + 1)) * edge_mask(n)
    no_gp = np.zeros((3, n + 1, r))

    def messages(p):
        f = trilinear_factors(*p.values())
        return kernels.messages_forward(q, *kernels.couplings(ad.val(f.block), no_gp))[0]

    leaves = {k: ad.Var(v) for k, v in arrays.items()}
    f = trilinear_factors(*leaves.values())
    ops = kernels.couplings(f.block.value, no_gp)
    _, saved = kernels.messages_forward(q, *ops)  # the products of q the backward reads
    _, dsib, _ = kernels.messages_backward(dm, q, *ops, saved)
    ad.backward(f.block, dsib)
    dcube = dm[:, :, None] * q[:, None, :]  # the cube kernel's, both orientations
    expect = _trilinear_vjp_einsum(*arrays.values(),
                                   (dcube + dcube.transpose(0, 2, 1)) * _valid_cells(n + 1, n + 1))
    fd = finite_diff_gradient(lambda p: float(np.sum(messages(p) * dm)), arrays, eps=1e-6)
    for k in arrays:
        np.testing.assert_allclose(leaves[k].grad, expect[k], rtol=1e-10, atol=1e-10, err_msg=k)
        np.testing.assert_allclose(leaves[k].grad, fd[k], rtol=1e-6, atol=1e-6, err_msg=k)


def test_trilinear_op_second_backward_uses_new_adjoint():
    # the VJP's intermediates belong to one adjoint, also when W is a
    # plain array whose adjoint backward discards: its second call, on g2,
    # gives what a fresh graph's backward on g2 gives (backward walks a
    # graph once, so the VJP is called directly)
    rng = np.random.default_rng(7)
    gh0, gd0 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    W = rng.normal(size=(3, 2, 2))
    g1, g2 = rng.normal(size=(2, 3, 4, 2))

    vjp = trilinear_factors(ad.Var(gh0), ad.Var(gd0), W).block._vjp
    vjp(g1)
    dgh, dgd, _ = vjp(g2)
    fresh_gh, fresh_gd = ad.Var(gh0), ad.Var(gd0)
    ad.backward(trilinear_factors(fresh_gh, fresh_gd, W).block, g2)
    np.testing.assert_array_equal(dgh, fresh_gh.grad)
    np.testing.assert_array_equal(dgd, fresh_gd.grad)


def test_trilinear_weight_gradient_is_adopted_not_copied():
    # the VJP returns dW as an array of its own in W's shape, so backward
    # makes it W's grad as it is: the weight gradients are never copied
    rng = np.random.default_rng(11)
    gh, gd = ad.Var(rng.normal(size=(5, 3))), ad.Var(rng.normal(size=(5, 3)))
    W = ad.Var(rng.normal(size=(3, 3, 2)))
    s = trilinear_factors(gh, gd, W).block
    returned = []
    vjp = s._vjp

    def recording_vjp(g):
        adjoints = vjp(g)
        returned.append(adjoints[2])
        return adjoints

    s._vjp = recording_vjp
    ad.backward(s, rng.normal(size=(3, 5, 2)))
    assert W.grad is returned[0]
    assert W.grad.base is None and W.grad.shape == (3, 3, 2)


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
    assert type(got) is np.ndarray and got.shape == (1, n1, 2 * dh)
    Uc = [np.ascontiguousarray(u) for u in U]
    expect = np.concatenate(
        [_gru_reference(A[:3], Uc[:3], False), _gru_reference(A[3:], Uc[3:], True)], axis=1
    )
    np.testing.assert_array_equal(got[0], expect)


def _check_gru_gradient(B, n1, bw_only):
    # inputs reach the op through W x + b with d_in != dh, as in encode;
    # bw_only: the loss reads only the backward half, so every forward
    # parameter must get an exactly zero gradient
    d_in, dh = 4, 3
    rng = np.random.default_rng(100 * B + 10 * n1 + bw_only)
    arrays = {"X": rng.normal(size=(B * n1, d_in))}
    for k in (f"{d}{g}" for d in "fb" for g in "zrh"):
        arrays[f"W_{k}"] = rng.normal(size=(dh, d_in))
        arrays[f"b_{k}"] = rng.normal(size=dh)
        arrays[f"U_{k}"] = rng.normal(size=(dh, dh))
    weights = rng.normal(size=(B, n1, 2 * dh))
    if bw_only:
        weights[..., :dh] = 0.0

    def run():
        v = {k: ad.Var(a) for k, a in arrays.items()}
        keys = [f"{d}{g}" for d in "fb" for g in "zrh"]
        A = [linear(v["X"], v[f"W_{k}"], v[f"b_{k}"]) for k in keys]
        H = gru(A, [v[f"U_{k}"] for k in keys], B)
        return ad.sum_all(ad.mul(H, weights)), v

    out, leaves = run()
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(run()[0].value), arrays, eps=1e-6)
    for k in arrays:
        np.testing.assert_allclose(leaves[k].grad, fd[k], rtol=1e-6, atol=1e-8, err_msg=k)
        if bw_only and k[2:3] == "f":
            assert not leaves[k].grad.any(), k


@pytest.mark.parametrize("bw_only", [False, True])
@pytest.mark.parametrize("n1", [1, 3, 5])
def test_gru_op_gradient(n1, bw_only):
    _check_gru_gradient(1, n1, bw_only)


@pytest.mark.parametrize("bw_only", [False, True])
def test_gru_op_gradient_over_a_group(bw_only):
    # B = 3 sentences in lockstep: a state of 3 columns, one BPTT pass
    _check_gru_gradient(3, 4, bw_only)


def test_gru_group_matches_each_sentence_run_alone(backward_copies):
    # the group's rows are each sentence's rows, to GEMM-against-GEMV
    # rounding, and so are its adjoints; every adjoint owns its data, so
    # backward copies the seed alone
    B, n1, dh = 4, 6, 24
    rng = np.random.default_rng(21)
    A = [rng.normal(size=(B * n1, dh)) for _ in range(6)]
    U = [rng.normal(0.0, 1.0 / np.sqrt(dh), size=(dh, dh)) for _ in range(6)]
    g = rng.normal(size=(B, n1, 2 * dh))

    def run(A, g, B):
        leaves = [ad.Var(x) for x in (*A, *U)]
        backward_copies.clear()
        ad.backward(gru(leaves[:6], leaves[6:], B), g)
        assert len(backward_copies) == 1
        return [v.grad for v in leaves]

    group = run(A, g, B)
    out = gru(A, U, B)
    dU = np.zeros((6, dh, dh))
    for b in range(B):
        rows = slice(b * n1, (b + 1) * n1)
        A_b = [x[rows] for x in A]
        np.testing.assert_allclose(out[b:b + 1], gru(A_b, U), rtol=0, atol=1e-15)
        alone = run(A_b, g[b:b + 1], 1)
        for k in range(6):
            np.testing.assert_allclose(group[k][rows], alone[k], rtol=0, atol=1e-14)
        dU += alone[6:]
    np.testing.assert_allclose(group[6:], dU, rtol=0, atol=1e-13)


def test_group_encode_matches_each_sentence_encoded_alone():
    params = make_params(seed=4, d_hidden=24)
    group = [make_sentence(4, shift=k) for k in range(5)]
    together = encode(group, params)
    assert together.shape == (len(group), 5, 48)
    for sent, H in zip(group, together):
        alone = encode([sent], params)
        assert alone.shape == (1, 5, 48)
        np.testing.assert_allclose(H, alone[0], rtol=0, atol=1e-15)
    # a group of one is the step-by-step recurrence of each direction, bit for bit
    t = params.tensors
    sent = group[2]
    E = np.concatenate([t["emb_word"][[0] + [params.word2id[tok.form] for tok in sent.tokens]],
                        t["emb_pos"][[0] + [params.pos2id[tok.upos] for tok in sent.tokens]]],
                       axis=1)
    proj = {k: E @ t[f"gru_{k}_W"].T + t[f"gru_{k}_b"] for k in
            (f"{d}_{g}" for d in ("fw", "bw") for g in "zrh")}
    expect = np.concatenate([
        _gru_reference([proj[f"{d}_{g}"] for g in "zrh"], [t[f"gru_{d}_{g}_U"] for g in "zrh"],
                       d == "bw") for d in ("fw", "bw")], axis=1)
    np.testing.assert_array_equal(encode([sent], params)[0], expect)
    with pytest.raises(ValueError, match="one length"):
        encode([make_sentence(3), make_sentence(4)], params)


def _labels_einsum(lh, ld, heads, U):
    """The label scores of the read edges, (B, n, L), picked from the
    naive (B, n+1, n+1, L) cube of every pair."""
    cube = np.einsum("bix,lxy,bjy->bijl", lh, U, ld)
    rows = np.arange(len(heads))[:, None]
    return cube[rows, heads, np.arange(1, heads.shape[1] + 1)]


def test_label_op_matches_einsum_at_default_dims():
    # heads drawn with repeats and the root among them
    rng = np.random.default_rng(4)
    B, n, d, L = 2, 40, ModelConfig().d_label + 1, 40
    lh = rng.normal(size=(B, n + 1, d))
    ld = rng.normal(size=(B, n + 1, d))
    U = rng.normal(size=(L, d, d))
    heads = rng.integers(0, n + 1, size=(B, n))
    heads[:, :3] = 0
    got = label_biaffine(lh, ld, heads, U)
    want = _labels_einsum(lh, ld, heads, U)
    assert got.shape == (B, n, L)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_label_op_gradient_non_square():
    # n + 1 != m, a != b and L >= 3, so that no transposed view passes by
    # symmetry; a head read by two words and the root head: the VJP adds
    # every read row's adjoint into lh, and ld's root row gets none
    B, n, a, b, L = 2, 4, 3, 2, 3
    rng = np.random.default_rng(11)
    arrays = {
        "lh": rng.normal(size=(B, n + 1, a)),
        "ld": rng.normal(size=(B, n + 1, b)),
        "U": rng.normal(size=(L, a, b)),
    }
    heads = np.array([[0, 1, 1, 2], [3, 0, 0, 3]])
    expect = _labels_einsum(arrays["lh"], arrays["ld"], heads, arrays["U"])
    _check_op_grad(lambda lh, ld, U: label_biaffine(lh, ld, heads, U), arrays, expect, seed=19)


def test_label_op_on_a_sentence_with_no_words():
    # n = 0: no edge is read, and every adjoint is 0
    rng = np.random.default_rng(20)
    leaves = [ad.Var(rng.normal(size=shape)) for shape in ((3, 1, 4), (3, 1, 5), (2, 4, 5))]
    s = label_biaffine(leaves[0], leaves[1], np.zeros((3, 0), dtype=int), leaves[2])
    assert s.value.shape == (3, 0, 2)
    assert s.value.argmax(axis=-1).shape == (3, 0)
    ad.backward(ad.sum_all(s))
    for var in leaves:
        assert var.grad.shape == var.value.shape and not var.grad.any()


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
    # the edge biaffine: a (a, b) U gives the (m, n) score
    m, n, a, b = 4, 5, 3, 2
    rng = np.random.default_rng(14)
    lh, ld, U = rng.normal(size=(m, a)), rng.normal(size=(n, b)), rng.normal(size=(a, b))
    _check_op_grad(biaffine, {"lh": lh, "ld": ld, "U": U}, lh @ U @ ld.T, seed=15)


def _read_heads(rng, B, n):
    """(B, n) heads of the edges a label op reads, repeats and root included."""
    return rng.integers(0, n + 1, size=(B, n))


@pytest.mark.parametrize("op", ["edge", "label"])
def test_a_batch_of_biaffines_is_each_sentences_own_call(op):
    # one shape, leading axis always: each sentence of a (B, n+1, a)
    # batch gets the bits of its own call, for the edge biaffine (2-D U)
    # and the label op on the heads it reads (3-D U), and the VJP of a
    # batch of two matches central differences (m, n, a and b all differ
    # there)
    rng = np.random.default_rng(17)
    score = {"edge": lambda lh, ld, U, heads: biaffine(lh, ld, U),
             "label": lambda lh, ld, U, heads: label_biaffine(lh, ld, heads, U)}[op]
    U_shape = (21, 21) if op == "edge" else (5, 9, 9)
    U = rng.normal(size=U_shape)
    a = U_shape[-1]
    for B in (1, 4):
        for n in (3, 17, 61):
            lh, ld = rng.normal(size=(B, n + 1, a)), rng.normal(size=(B, n + 1, a))
            heads = _read_heads(rng, B, n)
            s = score(lh, ld, U, heads)
            assert s.shape == ((B, n + 1, n + 1) if op == "edge" else (B, n, 5))
            for b in range(B):
                own = score(lh[b:b + 1], ld[b:b + 1], U, heads[b:b + 1])[0]
                assert s[b].tobytes() == own.tobytes(), (B, n, b)
    U = rng.normal(size=(*U_shape[:-2], 3, 2))
    lh, ld = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 2))
    heads = _read_heads(rng, 2, 3)
    if op == "edge":
        expect = np.einsum("bix,xy,bjy->bij", lh, U, ld)
    else:
        expect = _labels_einsum(lh, ld, heads, U)
    _check_op_grad(lambda lh, ld, U: score(lh, ld, U, heads),
                   {"lh": lh, "ld": ld, "U": U}, expect, seed=18)


def test_projection_and_biaffine_gradients_are_adopted(backward_copies):
    # linear, biaffine and the label op return fresh adjoints, the weight
    # gradients in their parameters' shapes: backward copies the seed and
    # nothing else
    rng = np.random.default_rng(16)
    for op in ("edge", "label"):
        x = ad.Var(rng.normal(size=(1, 4, 3)))
        W, b = ad.Var(rng.normal(size=(5, 3))), ad.Var(rng.normal(size=5))
        U = ad.Var(rng.normal(size=(5, 5) if op == "edge" else (2, 5, 5)))
        h = linear(x, W, b)
        s = biaffine(h, h, U) if op == "edge" else label_biaffine(h, h, [[0, 1, 1]], U)
        backward_copies.clear()
        ad.backward(ad.sum_all(s))
        assert len(backward_copies) == 1
        for var in (x, W, b, U):
            assert var.grad.shape == var.value.shape


def test_scoring_plain_params_builds_no_graph_and_training_does():
    params = make_params(seed=6)
    sent = make_sentence(4)
    scores = score_alone(sent, params)
    assert scores.s_label is None  # labels are scored on the heads a sentence reads
    for name in ("s_edge", "s_sib", "s_gp"):
        s = getattr(scores, name)
        assert type(s.block if isinstance(s, scorer.Factors) else s) is np.ndarray, name
    rows = row_layers(encode([sent], params), params)
    assert type(score_labels(rows.label, [sent.gold_heads], params)) is np.ndarray
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
    rows = row_layers(encode([make_sentence(4)], params), params)
    post = mfvi(score_sentence(make_sentence(4), params, rows), variant, 2)
    heads, _ = decode(post.head_probs()[0])
    labels = label_distribution(score_labels(rows.label, [heads], params)).argmax(axis=-1)
    assert len(heads) == 4 and labels.shape == (1, 4)
    # lengths that repeat run as stacked batches through MFVI
    sentences = [make_sentence(n, shift) for shift in range(3) for n in (2, 5, 3)]
    trees = parse_sentences(params, sentences, variant, 2)
    assert [len(t.heads) for t in trees] == [len(s) for s in sentences]


def test_a_var_batch_gradient_is_the_sum_of_its_sentences_own():
    # encode and row_layers on leaf Vars of a batch of two, a fixed linear
    # functional applied to the whole (B, ...) arrays of each layer, as
    # training reaches its batch of one unsliced
    params = make_params(seed=9)
    batch = [make_sentence(4), make_sentence(4, shift=2)]

    def outputs(rows):
        return (*rows.edge, rows.s_sib.block, rows.s_gp.block, *rows.label)

    rng = np.random.default_rng(9)  # a fixed linear functional of each layer's rows
    weights = [rng.normal(size=ad.val(x).shape)
               for x in outputs(row_layers(encode(batch, params), params))]

    def grads(sentences, first):
        pv = params.as_vars()
        rows = row_layers(encode(sentences, params, pv), params, pv)
        total = 0.0
        for x, w in zip(outputs(rows), weights):
            total = ad.add(total, ad.sum_all(ad.mul(x, w[first:first + len(sentences)])))
        ad.backward(total)
        return {k: v.grad for k, v in pv.items() if v.grad is not None}

    together = grads(batch, 0)
    alone = [grads([sent], b) for b, sent in enumerate(batch)]
    assert together.keys() == alone[0].keys() == alone[1].keys()
    assert together.keys() == params.tensors.keys() - {"U_edge", "U_label"}  # the biaffines'
    for name, g in together.items():
        expect = alone[0][name] + alone[1][name]
        assert np.linalg.norm(g - expect) <= 1e-12 * np.linalg.norm(expect), name


def test_training_loss_builds_one_node_per_layer(monkeypatch):
    # Single2o at T = 3 on a 5-word sentence: every projection is one
    # linear node, edges one biaffine node, each of the sibling and the
    # grandparent scores one node that builds its factor block, and MFVI
    # reads the blocks with no node of its own between the scorer and the
    # messages (its correction matrices are plain arrays); the batch of
    # one reaches the biaffines and MFVI unsliced, with no index node; 58
    # nodes
    nodes = []
    init = ad.Var.__init__

    def counting_init(self, value, parents=(), vjp=None):
        init(self, value, parents, vjp)
        if vjp is not None:
            nodes.append(self)

    monkeypatch.setattr(ad.Var, "__init__", counting_init)
    sentence_loss(make_sentence(5), make_params(seed=6), "single2o", 3, 0.07)
    assert len(nodes) == 58


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
    H = encode([make_sentence(3)], params)
    heads = [[0, 1, 1]]
    p = ad.val(label_distribution(score_labels(row_layers(H, params).label, heads, params)))
    assert p.shape == (1, 3, 3)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_training_and_parsing_share_one_pair_of_bin_projections(monkeypatch):
    # the sibling and grandparent scorers read one bin_head/bin_dep
    # projection of H, in parsing as in training
    params = make_params(seed=8)
    sent = make_sentence(4)
    calls = []
    linear_op = scorer.linear
    monkeypatch.setattr(scorer, "linear", lambda *args: calls.append(1) or linear_op(*args))
    scores = score_alone(sent, params)
    assert len(calls) == 6 + 3 * 2  # the GRU gates; head and dependent of edges, bins, labels
    bins = _bins(encode([sent], params), params)
    np.testing.assert_array_equal(scores.s_sib.block, score_siblings(bins, params).block)
    np.testing.assert_array_equal(scores.s_gp.block, score_grandparents(bins, params).block)
    calls.clear()
    sentence_loss(sent, params, "local2o", 2, 0.4)
    assert len(calls) == 6 + 3 * 2


def test_masked_cells_are_exactly_zero():
    # the model's factors give the messages of their cubes with the
    # sib_mask cells zeroed, on every candidate edge
    params = make_params(seed=1)
    scores = score_alone(make_sentence(4), params)
    n = 4
    q = np.random.default_rng(2).uniform(size=(n + 1, n + 1)) * edge_mask(n)
    blocks = scores.s_sib.block[0], scores.s_gp.block[0]
    got, _ = kernels.messages_forward(q, *kernels.couplings(*blocks))
    sib, gp = (cube_of(block) for block in blocks)
    assert not sib[sib_mask(n) == 0].any() and not gp[sib_mask(n) == 0].any()
    want = (np.einsum("ik,ijk->ij", q, sib + sib.transpose(0, 2, 1))
            + np.einsum("jk,ijk->ij", q, gp) + np.einsum("ki,kij->ij", q, gp))
    cand = edge_mask(n) == 1
    np.testing.assert_allclose(got[cand], want[cand], rtol=1e-12, atol=1e-15)


def test_scores_deterministic():
    a = score_alone(make_sentence(3), make_params(seed=7))
    b = score_alone(make_sentence(3), make_params(seed=7))
    for x, y in zip(a.values()[:3], b.values()[:3]):
        if isinstance(x, scorer.Factors):
            x, y = x.block, y.block
        assert np.array_equal(x, y)
    assert a.s_label is None and b.s_label is None


@pytest.mark.parametrize("tensor", ["U_edge", "gru_fw_z_W", "emb_word", "W_gp"])
def test_parameter_gradients_match_finite_differences(tensor):
    params = make_params(seed=3)
    sent = make_sentence(3)

    def run():
        pv = params.as_vars()
        rows = row_layers(encode([sent], params, pv), params, pv)
        scores = score_sentence(sent, params, rows, pv)
        # scalar mixing every tensor path: edges + siblings + grandparents + labels
        total = ad.sum_all(scores.s_edge)
        total = ad.add(total, ad.sum_all(scores.s_sib.block))
        total = ad.add(total, ad.sum_all(scores.s_gp.block))
        total = ad.add(total, ad.sum_all(score_labels(rows.label, [sent.gold_heads], params, pv)))
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
    d = 6
    stats = []
    for seed in range(30):
        p = make_params(seed=seed, d_edge=8, d_bin=d)
        W = p.tensors["W_sib"]
        # E[s^2] of a valid cell over gh, gd ~ N(0, I): rows i, j, k are
        # independent, so it is sum_rr' of the factors' Gram products; a
        # dense d^3 tensor drawn N(0, 0.25) gives 0.0625 d^3 in expectation
        gram = W.transpose(0, 2, 1) @ W
        stats.append((p.tensors["U_edge"].std(), W.std(),
                      np.sum(gram[0] * gram[1] * gram[2]) / (0.0625 * d**3)))
    unary, binary, score_variance = np.array(stats).mean(axis=0)
    assert 0.9 < unary < 1.1
    assert 0.95 < binary / (0.0625 / d) ** (1 / 6) < 1.05
    assert 0.8 < score_variance < 1.2


def test_trilinear_score_variance_is_the_gram_product_of_its_factors():
    # the identity test_unary_and_binary_init_scales relies on, by sampling
    rng = np.random.default_rng(4)
    d, n = 3, 5
    W = rng.normal(size=(3, d, d))
    gram = W.transpose(0, 2, 1) @ W
    cells = [_cube(trilinear_factors(rng.normal(size=(n + 1, d)), rng.normal(size=(n + 1, d)),
                                     W))[sib_mask(n) == 1] for _ in range(4000)]
    np.testing.assert_allclose(np.mean(np.square(cells)), np.sum(gram[0] * gram[1] * gram[2]),
                               rtol=0.05)


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

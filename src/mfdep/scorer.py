"""Trainable scoring model: embeddings, a one-layer bidirectional GRU
encoder, a biaffine edge scorer, trilinear sibling/grandparent scorers
and a biaffine labeler.

Score tensors follow the conventions:
    s_edge[i, j]     score of edge i -> j
    s_sib[i, j, k]   score of the edge pair {i -> j, i -> k}
    s_gp[i, j, k]    score of the chain i -> j -> k
    s_label[i, j, l] score of label l on edge i -> j
Cells that cannot correspond to a valid configuration (root as a
dependent, self-loops, repeated dependents) are fixed at 0.

Every scoring function reads the parameters from ``pv``: leaf Vars from
``ModelParams.as_vars`` for training, or by default the plain arrays of
``ModelParams.tensors``, in which case the scores are plain arrays and no
autodiff graph is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

ROOT = "<root>"
UNK = "<unk>"


@dataclass
class ModelConfig:
    d_word: int = 100
    d_pos: int = 50
    d_hidden: int = 100
    d_edge: int = 450  # 550 for the Single variants
    d_label: int = 150
    d_bin: int = 150
    variant: str = "local2o"
    iterations: int = 3
    # inverted-dropout probabilities; only used when dropout is enabled
    p_drop_embed: float = 0.20
    p_drop_edge: float = 0.25
    p_drop_label: float = 0.33
    p_drop_bin: float = 0.25

    @staticmethod
    def for_variant(variant, **kwargs):
        d_edge = 550 if variant.startswith("single") else 450
        it = 0 if variant.endswith("1o") else 3
        cfg = ModelConfig(variant=variant, d_edge=d_edge, iterations=it)
        for k, v in kwargs.items():
            setattr(cfg, k, v)
        return cfg


@dataclass
class ScoreTensors:
    s_edge: object  # Var or ndarray, (n+1, n+1)
    s_sib: object  # (n+1, n+1, n+1)
    s_gp: object  # (n+1, n+1, n+1)
    s_label: object  # (n+1, n+1, L)

    @property
    def n(self):
        return ad.val(self.s_edge).shape[0] - 1

    @property
    def n_labels(self):
        return ad.val(self.s_label).shape[2]

    def values(self):
        return (
            ad.val(self.s_edge),
            ad.val(self.s_sib),
            ad.val(self.s_gp),
            ad.val(self.s_label),
        )


_GATES = ("z", "r", "h")


@dataclass
class ModelParams:
    config: ModelConfig
    word2id: dict
    pos2id: dict
    labels: list
    tensors: dict = field(default_factory=dict)

    @property
    def n_labels(self):
        return len(self.labels)

    def copy(self):
        return ModelParams(
            self.config,
            dict(self.word2id),
            dict(self.pos2id),
            list(self.labels),
            {k: v.copy() for k, v in self.tensors.items()},
        )

    def as_vars(self):
        """Wrap every parameter tensor as a leaf Var for one forward pass."""
        return {name: ad.Var(arr) for name, arr in self.tensors.items()}


def build_vocabs(sentences):
    word2id = {ROOT: 0, UNK: 1}
    pos2id = {ROOT: 0, UNK: 1}
    labels = []
    for sent in sentences:
        for tok in sent.tokens:
            word2id.setdefault(tok.form, len(word2id))
            pos2id.setdefault(tok.upos, len(pos2id))
            if tok.gold_label not in labels:
                labels.append(tok.gold_label)
    return word2id, pos2id, sorted(labels)


def tensor_shapes(config, n_words, n_pos, n_labels):
    """{name: shape} of every parameter tensor, in initialization order."""
    d_in = config.d_word + config.d_pos
    dh = config.d_hidden
    shapes = {"emb_word": (n_words, config.d_word), "emb_pos": (n_pos, config.d_pos)}
    for direction in ("fw", "bw"):
        for gate in _GATES:
            shapes[f"gru_{direction}_{gate}_W"] = (dh, d_in)
            shapes[f"gru_{direction}_{gate}_U"] = (dh, dh)
            shapes[f"gru_{direction}_{gate}_b"] = (dh,)
    for role, d in (
        ("edge_head", config.d_edge),
        ("edge_dep", config.d_edge),
        ("label_head", config.d_label),
        ("label_dep", config.d_label),
        ("bin_head", config.d_bin),
        ("bin_dep", config.d_bin),
    ):
        shapes[f"{role}_W"] = (d, 2 * dh)
        shapes[f"{role}_b"] = (d,)
    shapes["U_edge"] = (config.d_edge + 1, config.d_edge + 1)
    shapes["U_label"] = (n_labels, config.d_label + 1, config.d_label + 1)
    shapes["W_sib"] = (config.d_bin,) * 3
    shapes["W_gp"] = (config.d_bin,) * 3
    return shapes


def init_params(config, word2id, pos2id, labels, seed=0):
    """Initialize all tensors.

    Biases are 0, biaffine (unary) tensors N(0, 1) and trilinear (binary)
    tensors N(0, 0.25); everything else uses 1/sqrt(fan_in) scaling.
    """
    rng = np.random.default_rng(seed)
    t = {}
    for name, shape in tensor_shapes(config, len(word2id), len(pos2id), len(labels)).items():
        if name.endswith("_b"):
            t[name] = np.zeros(shape)
        elif name in ("U_edge", "U_label"):
            t[name] = rng.normal(0.0, 1.0, size=shape)
        elif name in ("W_sib", "W_gp"):
            t[name] = rng.normal(0.0, 0.25, size=shape)
        else:
            t[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[-1]), size=shape)
    return ModelParams(config, word2id, pos2id, list(labels), t)


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------


def edge_mask(n):
    """(n+1, n+1) 0/1 mask of candidate edges i -> j."""
    idx = np.arange(n + 1)
    return ((idx[None, :] >= 1) & (idx[:, None] != idx[None, :])).astype(np.float64)


def sib_mask(n):
    """Valid {i->j, i->k} pairs: both edges valid, j != k."""
    idx = np.arange(n + 1)
    i = idx[:, None, None]
    j = idx[None, :, None]
    k = idx[None, None, :]
    return ((j >= 1) & (k >= 1) & (i != j) & (i != k) & (j != k)).astype(np.float64)


def gp_mask(n):
    """Valid chains i->j->k: both edges valid, no 2-cycle (k != i)."""
    idx = np.arange(n + 1)
    i = idx[:, None, None]
    j = idx[None, :, None]
    k = idx[None, None, :]
    return ((j >= 1) & (k >= 1) & (i != j) & (j != k) & (k != i)).astype(np.float64)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _dropout(x, p, rng):
    if rng is None or p <= 0.0:
        return x
    mask = (rng.random(ad.val(x).shape) >= p) / (1.0 - p)
    return ad.mul(x, mask)


def gru(A, U, reverse=False):
    """One GRU direction over precomputed input projections, differentiable.

    A = (A_z, A_r, A_h) are the (n1, dh) input projections x_t W_g^T + b_g
    of the update gate, the reset gate and the candidate state, and
    U = (U_z, U_r, U_h) the (dh, dh) recurrent matrices. From h = 0, each
    position t (last to first when reverse) computes
        z = sigmoid(A_z[t] + U_z h),  r = sigmoid(A_r[t] + U_r h),
        c = tanh(A_h[t] + U_h (r * h)),  h = (1 - z) * h + z * c,
    and row t of the (n1, dh) result is that h. The forward pass is a
    numpy loop that keeps z, r, c and h of every step; the VJPs are
    hand-written backpropagation through time."""
    az, ar, ah = (ad.val(a) for a in A)
    uz, ur, uh = (ad.val(u) for u in U)
    n1, dh = az.shape
    order = range(n1 - 1, -1, -1) if reverse else range(n1)
    # z and r side by side: one elementwise logistic serves both gates
    azr = np.concatenate((az, ar), axis=1)
    ZR, C, H = np.empty((n1, 2 * dh)), np.empty((n1, dh)), np.empty((n1, dh))
    h = np.zeros(dh)
    for t in order:
        ZR[t] = zr = ad.logistic(azr[t] + np.concatenate((uz @ h, ur @ h)))
        z, r = zr[:dh], zr[dh:]
        C[t] = c = np.tanh(ah[t] + uh @ (r * h))
        H[t] = h = (1.0 - z) * h + z * c
    Hp = np.zeros((n1, dh))  # the state each step started from
    if reverse:
        Hp[:-1] = H[1:]
    else:
        Hp[1:] = H[:-1]

    def bptt(g):
        dzr, dc = np.empty((n1, 2 * dh)), np.empty((n1, dh))
        uzr = np.concatenate((uz, ur))
        carry = np.zeros(dh)  # dL/dh flowing back from later steps
        for t in reversed(order):
            dh_t = g[t] + carry
            zr, c, hp = ZR[t], C[t], Hp[t]
            z, r = zr[:dh], zr[dh:]
            dc[t] = dct = dh_t * z * (1.0 - c * c)
            drh = dct @ uh
            dzr[t, :dh] = dh_t * (c - hp)
            dzr[t, dh:] = drh * hp
            dzr[t] *= zr * (1.0 - zr)
            carry = dh_t * (1.0 - z) + drh * r + dzr[t] @ uzr
        dz, dr = dzr[:, :dh], dzr[:, dh:]
        return dz, dr, dc, dz.T @ Hp, dr.T @ Hp, dc.T @ (ZR[:, dh:] * Hp)

    parents = (*A, *U)
    shared = ad.shared_backward(parents, bptt)
    vjps = tuple((lambda g, k=k: shared(g)[k]) for k in range(6))
    return ad.custom_op(H, parents, vjps)


def _gru_direction(X, pv, direction):
    A = [_proj(X, pv, f"gru_{direction}_{g}") for g in _GATES]
    U = [pv[f"gru_{direction}_{g}_U"] for g in _GATES]
    return gru(A, U, reverse=direction == "bw")


def encode(sentence, params, pv=None, dropout_rng=None):
    """Contextual representations, one row per position (row 0 = root)."""
    if pv is None:
        pv = params.tensors
    wids = [0] + [params.word2id.get(t.form, 1) for t in sentence.tokens]
    pids = [0] + [params.pos2id.get(t.upos, 1) for t in sentence.tokens]
    E = ad.concat(
        [ad.gather_rows(pv["emb_word"], wids), ad.gather_rows(pv["emb_pos"], pids)],
        axis=1,
    )
    E = _dropout(E, params.config.p_drop_embed if dropout_rng is not None else 0.0, dropout_rng)
    return ad.concat([_gru_direction(E, pv, "fw"), _gru_direction(E, pv, "bw")], axis=1)


def _aug(x):
    # append a constant-1 column (bias augmentation)
    ones = np.ones((ad.val(x).shape[0], 1))
    return ad.concat([x, ones], axis=1)


def _proj(H, pv, role):
    return ad.add(ad.matmul(H, ad.transpose(pv[f"{role}_W"])), pv[f"{role}_b"])


def score_edges(H, params, pv=None, dropout_rng=None):
    if pv is None:
        pv = params.tensors
    p = params.config.p_drop_edge if dropout_rng is not None else 0.0
    hh = _aug(_proj(_dropout(H, p, dropout_rng), pv, "edge_head"))
    hd = _aug(_proj(_dropout(H, p, dropout_rng), pv, "edge_dep"))
    s = ad.matmul(ad.matmul(hh, pv["U_edge"]), ad.transpose(hd))
    n = ad.val(H).shape[0] - 1
    return ad.mul(s, edge_mask(n))


def trilinear(gh, gd, W):
    """s[i,j,k] = sum_abc gh[i,a] W[a,b,c] gd[j,b] gd[k,c], differentiable.

    gh is (m, e), gd (n, d) and W (e, d, d); s is (m, n, n). The forward
    pass and the VJPs are BLAS matmuls on reshaped views."""
    vh, vd, vw = ad.val(gh), ad.val(gd), ad.val(W)
    (m, e), (n, d) = vh.shape, vd.shape
    t1 = (vh @ vw.reshape(e, d * d)).reshape(m, d, d)  # t1[i,b,c]
    t2 = np.matmul(vd, t1)  # t2[i,j,c]
    # m GEMMs: one (m*n, d) GEMM touches more BLAS buffer (parse-long +7 MB RSS)
    s = t2 @ vd.T

    def intermediates(g):
        dt2 = (g.reshape(m * n, n) @ vd).reshape(m, n, d)
        return dt2, np.matmul(vd.T, dt2)  # dt2[i,j,c], dt1[i,b,c]

    shared = ad.shared_backward((gh, gd, W), intermediates)

    def d_gh(g):
        _, dt1 = shared(g)
        return dt1.reshape(m, d * d) @ vw.reshape(e, d * d).T

    def d_gd(g):
        dt2, _ = shared(g)
        as_k = g.reshape(m * n, n).T @ t2.reshape(m * n, d)
        as_j = np.matmul(dt2, t1.transpose(0, 2, 1)).sum(axis=0)
        return as_k + as_j

    def d_W(g):
        _, dt1 = shared(g)
        return (vh.T @ dt1.reshape(m, d * d)).reshape(e, d, d)

    return ad.custom_op(s, (gh, gd, W), (d_gh, d_gd, d_W))


def _trilinear(H, pv, W_name, mask, params, dropout_rng):
    p = params.config.p_drop_bin if dropout_rng is not None else 0.0
    gh = _proj(_dropout(H, p, dropout_rng), pv, "bin_head")
    gd = _proj(_dropout(H, p, dropout_rng), pv, "bin_dep")
    return ad.mul(trilinear(gh, gd, pv[W_name]), mask)


def score_siblings(H, params, pv=None, dropout_rng=None):
    if pv is None:
        pv = params.tensors
    n = ad.val(H).shape[0] - 1
    return _trilinear(H, pv, "W_sib", sib_mask(n), params, dropout_rng)


def score_grandparents(H, params, pv=None, dropout_rng=None):
    if pv is None:
        pv = params.tensors
    n = ad.val(H).shape[0] - 1
    return _trilinear(H, pv, "W_gp", gp_mask(n), params, dropout_rng)


def biaffine_labels(lh, ld, U):
    """s[i,j,l] = sum_ab lh[i,a] U[l,a,b] ld[j,b], differentiable.

    lh is (m, a), ld (n, b) and U (L, a, b); s is (m, n, L). The forward
    pass and the VJPs are batched BLAS matmuls on reshaped views."""
    vh, vd, vu = ad.val(lh), ad.val(ld), ad.val(U)
    (m, a), (n, b), L = vh.shape, vd.shape, vu.shape[0]
    t1 = np.matmul(vh, vu).reshape(L * m, b)  # t1[l*m+i, b]
    s = (t1 @ vd.T).reshape(L, m, n).transpose(1, 2, 0)

    def intermediates(g):
        gl = np.ascontiguousarray(g.transpose(2, 0, 1)).reshape(L * m, n)
        return gl, (gl @ vd).reshape(L, m, b)  # gl[l*m+i, j], dt1[l,i,b]

    shared = ad.shared_backward((lh, ld, U), intermediates)

    def d_lh(g):
        _, dt1 = shared(g)
        return np.matmul(dt1, vu.transpose(0, 2, 1)).sum(axis=0)

    def d_ld(g):
        gl, _ = shared(g)
        return gl.T @ t1

    def d_U(g):
        _, dt1 = shared(g)
        return np.matmul(vh.T, dt1)

    return ad.custom_op(np.ascontiguousarray(s), (lh, ld, U), (d_lh, d_ld, d_U))


def score_labels(H, params, pv=None, dropout_rng=None):
    if pv is None:
        pv = params.tensors
    p = params.config.p_drop_label if dropout_rng is not None else 0.0
    lh = _aug(_proj(_dropout(H, p, dropout_rng), pv, "label_head"))
    ld = _aug(_proj(_dropout(H, p, dropout_rng), pv, "label_dep"))
    n = ad.val(H).shape[0] - 1
    return ad.mul(biaffine_labels(lh, ld, pv["U_label"]), edge_mask(n)[:, :, None])


def label_distribution(s_label):
    """Per-edge softmax over labels."""
    return ad.softmax(s_label, axis=2)


def score_sentence(sentence, params, pv=None, dropout_rng=None):
    """Full scoring pass: Sentence -> ScoreTensors, differentiable with
    respect to the Vars in pv."""
    if pv is None:
        pv = params.tensors
    H = encode(sentence, params, pv, dropout_rng)
    return ScoreTensors(
        s_edge=score_edges(H, params, pv, dropout_rng),
        s_sib=score_siblings(H, params, pv, dropout_rng),
        s_gp=score_grandparents(H, params, pv, dropout_rng),
        s_label=score_labels(H, params, pv, dropout_rng),
    )


def load_embeddings(path, params):
    """Load plain-text word vectors (token then d floats per line) into
    the word embedding rows of params, for tokens in the vocabulary."""
    d = params.config.d_word
    loaded = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split()
            if len(parts) != d + 1:
                continue
            idx = params.word2id.get(parts[0])
            if idx is not None:
                params.tensors["emb_word"][idx] = [float(x) for x in parts[1:]]
                loaded += 1
    return loaded

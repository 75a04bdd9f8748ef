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


def init_params(config, word2id, pos2id, labels, seed=0):
    """Initialize all tensors.

    Biaffine (unary) tensors are N(0, 1) and trilinear (binary) tensors
    N(0, 0.25); everything else uses 1/sqrt(fan_in) scaling.
    """
    rng = np.random.default_rng(seed)
    t = {}

    def scaled(*shape):
        fan_in = shape[-1]
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)

    t["emb_word"] = scaled(len(word2id), config.d_word)
    t["emb_pos"] = scaled(len(pos2id), config.d_pos)

    d_in = config.d_word + config.d_pos
    dh = config.d_hidden
    for direction in ("fw", "bw"):
        for gate in _GATES:
            t[f"gru_{direction}_{gate}_W"] = scaled(dh, d_in)
            t[f"gru_{direction}_{gate}_U"] = scaled(dh, dh)
            t[f"gru_{direction}_{gate}_b"] = np.zeros(dh)

    enc = 2 * dh
    for role, d in (
        ("edge_head", config.d_edge),
        ("edge_dep", config.d_edge),
        ("label_head", config.d_label),
        ("label_dep", config.d_label),
        ("bin_head", config.d_bin),
        ("bin_dep", config.d_bin),
    ):
        t[f"{role}_W"] = scaled(d, enc)
        t[f"{role}_b"] = np.zeros(d)

    t["U_edge"] = rng.normal(0.0, 1.0, size=(config.d_edge + 1, config.d_edge + 1))
    t["U_label"] = rng.normal(
        0.0, 1.0, size=(len(labels), config.d_label + 1, config.d_label + 1)
    )
    t["W_sib"] = rng.normal(0.0, 0.25, size=(config.d_bin,) * 3)
    t["W_gp"] = rng.normal(0.0, 0.25, size=(config.d_bin,) * 3)

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


def _gru_direction(X, pv, direction, n1, dh):
    # input projections for all positions at once
    gates = {
        g: ad.add(ad.matmul(X, ad.transpose(pv[f"gru_{direction}_{g}_W"])),
                  pv[f"gru_{direction}_{g}_b"])
        for g in _GATES
    }
    order = range(n1) if direction == "fw" else range(n1 - 1, -1, -1)
    h = ad.Var(np.zeros(dh))
    outs = [None] * n1
    for t in order:
        z = ad.sigmoid(ad.add(ad.row(gates["z"], t), ad.matmul(pv[f"gru_{direction}_z_U"], h)))
        r = ad.sigmoid(ad.add(ad.row(gates["r"], t), ad.matmul(pv[f"gru_{direction}_r_U"], h)))
        hc = ad.tanh(
            ad.add(ad.row(gates["h"], t), ad.matmul(pv[f"gru_{direction}_h_U"], ad.mul(r, h)))
        )
        h = ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, hc))
        outs[t] = h
    return ad.stack_rows(outs)


def encode(sentence, params, pv=None, dropout_rng=None):
    """Contextual representations, one row per position (row 0 = root)."""
    if pv is None:
        pv = params.as_vars()
    wids = [0] + [params.word2id.get(t.form, 1) for t in sentence.tokens]
    pids = [0] + [params.pos2id.get(t.upos, 1) for t in sentence.tokens]
    E = ad.concat(
        [ad.gather_rows(pv["emb_word"], wids), ad.gather_rows(pv["emb_pos"], pids)],
        axis=1,
    )
    E = _dropout(E, params.config.p_drop_embed if dropout_rng is not None else 0.0, dropout_rng)
    n1 = len(wids)
    dh = params.config.d_hidden
    fw = _gru_direction(E, pv, "fw", n1, dh)
    bw = _gru_direction(E, pv, "bw", n1, dh)
    return ad.concat([fw, bw], axis=1)


def _aug(x):
    # append a constant-1 column (bias augmentation)
    ones = np.ones((ad.val(x).shape[0], 1))
    return ad.concat([x, ones], axis=1)


def _proj(H, pv, role):
    return ad.add(ad.matmul(H, ad.transpose(pv[f"{role}_W"])), pv[f"{role}_b"])


def score_edges(H, params, pv=None, dropout_rng=None):
    if pv is None:
        pv = params.as_vars()
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
    live = sum(isinstance(p, ad.Var) for p in (gh, gd, W))
    memo = []

    def shared(g):
        # backward calls the VJPs of this op's Var parents back to back
        # with one g: the first computes dt2 = g gd and dt1 = gd^T dt2,
        # the last drops them
        if not memo:
            dt2 = (g.reshape(m * n, n) @ vd).reshape(m, n, d)
            memo[:] = [dt2, np.matmul(vd.T, dt2), live]
        dt2, dt1 = memo[0], memo[1]
        memo[2] -= 1
        if memo[2] == 0:
            memo.clear()
        return dt2, dt1

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
        pv = params.as_vars()
    n = ad.val(H).shape[0] - 1
    return _trilinear(H, pv, "W_sib", sib_mask(n), params, dropout_rng)


def score_grandparents(H, params, pv=None, dropout_rng=None):
    if pv is None:
        pv = params.as_vars()
    n = ad.val(H).shape[0] - 1
    return _trilinear(H, pv, "W_gp", gp_mask(n), params, dropout_rng)


def score_labels(H, params, pv=None, dropout_rng=None):
    if pv is None:
        pv = params.as_vars()
    p = params.config.p_drop_label if dropout_rng is not None else 0.0
    lh = _aug(_proj(_dropout(H, p, dropout_rng), pv, "label_head"))
    ld = _aug(_proj(_dropout(H, p, dropout_rng), pv, "label_dep"))
    t1 = ad.einsum("ia,lab->ilb", lh, pv["U_label"])
    s = ad.einsum("ilb,jb->ijl", t1, ld)
    n = ad.val(H).shape[0] - 1
    return ad.mul(s, edge_mask(n)[:, :, None])


def label_distribution(s_label):
    """Per-edge softmax over labels."""
    return ad.softmax(s_label, axis=2)


def score_sentence(sentence, params, pv=None, dropout_rng=None):
    """Full scoring pass: Sentence -> ScoreTensors (differentiable)."""
    if pv is None:
        pv = params.as_vars()
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

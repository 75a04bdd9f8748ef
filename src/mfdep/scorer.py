"""Trainable scoring model: embeddings, a one-layer bidirectional GRU
encoder, a biaffine edge scorer, trilinear sibling/grandparent scorers
and a biaffine labeler. Each layer is one op over its parameters:
``linear`` for every projection, ``gru``, ``biaffine`` for both edges and
labels, and ``trilinear``; their VJPs return fresh arrays, which
``autodiff.backward`` adopts as gradients without a copy.

Score tensors follow the conventions:
    s_edge[i, j]     score of edge i -> j
    s_sib[i, j, k]   score of the edge pair {i -> j, i -> k}
    s_gp[i, j, k]    score of the chain i -> j -> k
    s_label[i, j, l] score of label l on edge i -> j
Cells that cannot correspond to a valid configuration (root as a
dependent, self-loops, repeated dependents) are fixed at 0: by a 2-D mask
for edges and labels, and inside ``trilinear`` for sibling pairs and
chains, so that no mask cube is built.

Every scoring function reads the parameters from ``pv``: leaf Vars from
``ModelParams.as_vars`` for training, or by default the plain arrays of
``ModelParams.tensors``, in which case the scores are plain arrays and
no op builds a closure or any other autodiff bookkeeping.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

ROOT = "<root>"
UNK = "<unk>"
MODEL_DIMS = ("d_word", "d_pos", "d_hidden", "d_edge", "d_label", "d_bin")


def check_range(config, names, holds, rule):
    """Raise ValueError, "<name> must <rule>", for the first named field
    of config whose value fails ``holds``; each test in use is false for
    NaN."""
    for name in names:
        if not holds(getattr(config, name)):
            raise ValueError(f"{name} must {rule}")


# The paper's four parsers by name: posterior family ("local": a categorical
# head per word; "single": a Bernoulli per edge), default MFVI iterations T
# (0: first order), edge-MLP width d_edge and label-loss weight lam.
Variant = namedtuple("Variant", "posterior iterations d_edge lam")
VARIANTS = {
    family + order: Variant(family, T, d_edge, lam)
    for order, T in (("1o", 0), ("2o", 3))
    for family, d_edge, lam in (("local", 450, 0.40), ("single", 550, 0.07))
}


def variant_row(name):
    """The ``VARIANTS`` row of name; ValueError if no parser has it."""
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {', '.join(VARIANTS)}")
    return VARIANTS[name]


@dataclass
class ModelConfig:
    d_word: int = 100
    d_pos: int = 50
    d_hidden: int = 100
    d_edge: int = None  # default: the variant's
    d_label: int = 150
    d_bin: int = 150
    variant: str = "local2o"
    iterations: int = None  # default: the variant's T
    # inverted-dropout probabilities; only used when dropout is enabled
    p_drop_embed: float = 0.20
    p_drop_edge: float = 0.25
    p_drop_label: float = 0.33
    p_drop_bin: float = 0.25

    def __post_init__(self):
        row = variant_row(self.variant)
        self.d_edge = row.d_edge if self.d_edge is None else self.d_edge
        self.iterations = row.iterations if self.iterations is None else self.iterations
        check_range(self, MODEL_DIMS, lambda v: v >= 1, "be >= 1")
        check_range(self, ("iterations",), lambda v: v >= 0, "be >= 0")
        check_range(self, ("p_drop_embed", "p_drop_edge", "p_drop_label", "p_drop_bin"),
                    lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")

    @staticmethod
    def for_variant(variant, **kwargs):
        return ModelConfig(variant=variant, **kwargs)


@dataclass
class ScoreTensors:
    s_edge: object  # Var or ndarray, (n+1, n+1)
    s_sib: object  # (n+1, n+1, n+1)
    s_gp: object  # (n+1, n+1, n+1)
    s_label: object  # (n+1, n+1, L)

    @property
    def n(self):
        return ad.val(self.s_edge).shape[0] - 1

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


@functools.lru_cache(maxsize=16)
def edge_mask(n):
    """(n+1, n+1) 0/1 mask of candidate edges i -> j. Read-only: one
    array per length serves every sentence of that length."""
    idx = np.arange(n + 1)
    mask = ((idx[None, :] >= 1) & (idx[:, None] != idx[None, :])).astype(np.float64)
    mask.flags.writeable = False
    return mask


def sib_mask(n):
    """(n+1, n+1, n+1) 0/1 mask of valid sibling pairs {i->j, i->k} and
    valid chains i->j->k, one predicate: both edges valid (j, k >= 1)
    and i, j, k pairwise distinct (j != k for a pair; k != i rules out a
    2-cycle in a chain). ``trilinear`` zeroes these cells in place
    without building the mask."""
    idx = np.arange(n + 1)
    i = idx[:, None, None]
    j = idx[None, :, None]
    k = idx[None, None, :]
    return ((j >= 1) & (k >= 1) & (i != j) & (i != k) & (j != k)).astype(np.float64)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _dropout(x, p, rng):
    if rng is None or p <= 0.0:
        return x
    mask = (rng.random(ad.val(x).shape) >= p) / (1.0 - p)
    return ad.mul(x, mask)


def _by_position(x):
    """(n1, 2, ...) in step order -> (2, n1, ...) in position order."""
    return np.stack((x[:, 0], x[::-1, 1]))


def gru(A, U):
    """Both GRU directions over precomputed input projections, in
    lockstep, differentiable.

    A = (A_z, A_r, A_h) of the forward direction followed by those of the
    backward one: the (n1, dh) input projections x_t W_g^T + b_g of the
    update gate, the reset gate and the candidate state. U likewise holds
    the six (dh, dh) recurrent matrices (U_z, U_r, U_h). From h = 0, each
    step of a direction computes
        z = sigmoid(A_z[t] + U_z h),  r = sigmoid(A_r[t] + U_r h),
        c = tanh(A_h[t] + U_h (r * h)),  h = (1 - z) * h + z * c,
    the forward direction for t = 0 .. n1-1 and the backward one for
    t = n1-1 .. 0. Row t of the (n1, 2 dh) result is both h at t, forward
    first. Step s runs forward position s and backward position n1-1-s
    together: the state is both directions' h as a (2, dh, 1) stack of
    columns, each recurrent product one np.matmul over the directions'
    stacked matrices, and the gate arithmetic one pass over stacked
    arrays. Per element the arithmetic is that of one direction at a
    time, so the result is bit-identical to it. The VJP is hand-written
    backpropagation through time in the same lockstep."""
    a = [ad.val(x) for x in A]
    u = [ad.val(x) for x in U]
    n1, dh = a[0].shape
    # step order, states as columns: [s, 0] is forward position s and
    # [s, 1] backward position n1-1-s; z and r side by side, so that one
    # elementwise logistic serves both gates
    azr = np.concatenate((a[0], a[1], a[3][::-1], a[4][::-1]), axis=1).reshape(n1, 2, 2 * dh, 1)
    ah = np.concatenate((a[2], a[5][::-1]), axis=1).reshape(n1, 2, dh, 1)
    # C-ordered stacks (np.concatenate would keep a Fortran-ordered input's
    # layout, and BLAS rounds a transposed operand differently)
    uzr = np.array((u[0], u[1], u[3], u[4])).reshape(2, 2 * dh, dh)
    uh = np.array((u[2], u[5]))
    ZR, C, H = np.empty((n1, 2, 2 * dh, 1)), np.empty((n1, 2, dh, 1)), np.empty((n1, 2, dh, 1))
    h = np.zeros((2, dh, 1))
    for s in range(n1):
        zr = ad.logistic(azr[s] + np.matmul(uzr, h), out=ZR[s])
        z, r = zr[:, :dh], zr[:, dh:]
        c = np.tanh(ah[s] + np.matmul(uh, r * h), out=C[s])
        h = np.add((1.0 - z) * h, z * c, out=H[s])
    out = np.concatenate((H[:, 0, :, 0], H[::-1, 1, :, 0]), axis=1)
    parents = (*A, *U)
    if not ad.any_var(parents):
        return out
    ZR, C, H = ZR[..., 0], C[..., 0], H[..., 0]
    Hp = np.zeros((n1, 2, dh))  # the state each step started from
    Hp[1:] = H[:-1]

    def bptt(g):
        G = np.empty((n1, 2, dh))
        G[:, 0], G[:, 1] = g[:, :dh], g[::-1, dh:]
        dZR, dC = np.empty((n1, 2, 2 * dh)), np.empty((n1, 2, dh))
        carry = np.zeros((2, dh))  # dL/dh flowing back from later steps
        for s in range(n1 - 1, -1, -1):
            dh_s = G[s] + carry
            zr, c, hp = ZR[s], C[s], Hp[s]
            z, r = zr[:, :dh], zr[:, dh:]
            dC[s] = dcs = dh_s * z * (1.0 - c * c)
            drh = np.matmul(dcs[:, None, :], uh)[:, 0]
            dZR[s, :, :dh] = dh_s * (c - hp)
            dZR[s, :, dh:] = drh * hp
            dZR[s] *= zr * (1.0 - zr)
            carry = dh_s * (1.0 - z) + drh * r + np.matmul(dZR[s][:, None, :], uzr)[:, 0]
        dZR, dC, Hp_, R = (_by_position(x) for x in (dZR, dC, Hp, ZR[:, :, dh:]))
        dz, dr = dZR[:, :, :dh], dZR[:, :, dh:]
        dUz = np.matmul(dz.transpose(0, 2, 1), Hp_)
        dUr = np.matmul(dr.transpose(0, 2, 1), Hp_)
        dUh = np.matmul(dC.transpose(0, 2, 1), R * Hp_)
        return (dz[0], dr[0], dC[0], dz[1], dr[1], dC[1],
                dUz[0], dUr[0], dUh[0], dUz[1], dUr[1], dUh[1])

    return ad.custom_op(out, parents, bptt)


def encode(sentence, params, pv=None, dropout_rng=None):
    """Contextual representations, one row per position (row 0 = root)."""
    pv = params.tensors if pv is None else pv
    wids = [0] + [params.word2id.get(t.form, 1) for t in sentence.tokens]
    pids = [0] + [params.pos2id.get(t.upos, 1) for t in sentence.tokens]
    E = ad.concat(
        [ad.gather_rows(pv["emb_word"], wids), ad.gather_rows(pv["emb_pos"], pids)],
        axis=1,
    )
    E = _dropout(E, params.config.p_drop_embed, dropout_rng)
    A = [_proj(E, pv, f"gru_{d}_{g}") for d in ("fw", "bw") for g in _GATES]
    return gru(A, [pv[f"gru_{d}_{g}_U"] for d in ("fw", "bw") for g in _GATES])


def _aug(x):
    # append a constant-1 column (bias augmentation)
    ones = np.ones((ad.val(x).shape[0], 1))
    return ad.concat([x, ones], axis=1)


def linear(x, W, b):
    """x @ W.T + b, differentiable: the (m, d_in) rows of x projected by
    the (d_out, d_in) W, plus the (d_out,) bias b."""
    vx, vw, vb = ad.val(x), ad.val(W), ad.val(b)
    y = vx @ vw.T + vb
    if not ad.any_var((x, W, b)):
        return y
    return ad.custom_op(y, (x, W, b), lambda g: (g @ vw, g.T @ vx, g.sum(axis=0)))


def _proj(H, pv, role):
    return linear(H, pv[f"{role}_W"], pv[f"{role}_b"])


def _head_dep(H, pv, role, p, dropout_rng):
    """The head and the dependent projection of one scorer, each of H
    under a dropout draw of its own."""
    return [_proj(_dropout(H, p, dropout_rng), pv, f"{role}_{r}") for r in ("head", "dep")]


def biaffine(lh, ld, U):
    """s[i,j,l] = sum_ab lh[i,a] U[l,a,b] ld[j,b], differentiable.

    lh is (m, a), ld (n, b) and U (L, a, b); s is (m, n, L). A 2-D U of
    shape (a, b) counts as L = 1 and gives the (m, n) score s[i,j]. The
    forward pass and the VJP are batched BLAS matmuls on reshaped views."""
    vh, vd, vu = ad.val(lh), ad.val(ld), ad.val(U)
    (m, a), (n, b) = vh.shape, vd.shape
    u3 = vu.reshape(-1, a, b)
    t1 = np.matmul(vh, u3).reshape(-1, b)  # t1[l*m+i, b]
    s = t1 @ vd.T
    if vu.ndim == 3:
        s = np.ascontiguousarray(s.reshape(-1, m, n).transpose(1, 2, 0))
    if not ad.any_var((lh, ld, U)):
        return s

    def vjp(g):
        if vu.ndim == 3:
            g = np.ascontiguousarray(g.transpose(2, 0, 1)).reshape(-1, n)  # g[l*m+i, j]
        dt1 = (g @ vd).reshape(-1, m, b)  # dt1[l,i,b]
        dU = np.empty(vu.shape)  # an owning array, so backward adopts it
        np.matmul(vh.T, dt1, out=dU.reshape(u3.shape))
        return np.matmul(dt1, u3.transpose(0, 2, 1)).sum(axis=0), g.T @ t1, dU

    return ad.custom_op(s, (lh, ld, U), vjp)


def score_edges(H, params, pv=None, dropout_rng=None):
    pv = params.tensors if pv is None else pv
    hh, hd = _head_dep(H, pv, "edge", params.config.p_drop_edge, dropout_rng)
    n = ad.val(H).shape[0] - 1
    return ad.mul(biaffine(_aug(hh), _aug(hd), pv["U_edge"]), edge_mask(n))


def _zero_invalid(s):
    """Multiply by 0.0, in place, the cells of an (m, n, n) cube that
    hold no valid sibling pair or chain: j = 0, k = 0, or two of i, j, k
    equal (the cells ``sib_mask`` zeroes). A product keeps the sign of
    the cell, as the product with a 0/1 mask does."""
    m, n = s.shape[:2]
    d = min(m, n)
    # einsum with a repeated index returns a writeable view of a diagonal
    for cells in (s[:, 0], s[:, :, 0], np.einsum("ijj->ij", s),
                  np.einsum("iik->ik", s[:d, :d]), np.einsum("iji->ij", s[:d, :, :d])):
        cells *= 0.0


def trilinear(gh, gd, W):
    """s[i,j,k] = sum_abc gh[i,a] W[a,b,c] gd[j,b] gd[k,c] on valid
    cells and 0 elsewhere, differentiable.

    gh is (m, e), gd (n, d) and W (e, d, d); s is (m, n, n). A cell is
    valid when j, k >= 1 and i, j, k are pairwise distinct; the op zeroes
    the others in its output, and in the adjoint before its VJP. The
    forward pass and the VJP are BLAS matmuls on reshaped views."""
    vh, vd, vw = ad.val(gh), ad.val(gd), ad.val(W)
    (m, e), (n, d) = vh.shape, vd.shape
    t1 = (vh @ vw.reshape(e, d * d)).reshape(m, d, d)  # t1[i,b,c]
    t2 = np.matmul(vd, t1)  # t2[i,j,c]
    # m GEMMs: one (m*n, d) GEMM touches more BLAS buffer (parse-long +7 MB RSS)
    s = t2 @ vd.T
    _zero_invalid(s)
    if not ad.any_var((gh, gd, W)):
        return s

    def vjp(g):
        g = g.copy()
        _zero_invalid(g)
        dt2 = (g.reshape(m * n, n) @ vd).reshape(m, n, d)  # dt2[i,j,c]
        dt1 = np.matmul(vd.T, dt2)  # dt1[i,b,c]
        d_gh = dt1.reshape(m, d * d) @ vw.reshape(e, d * d).T
        as_k = g.reshape(m * n, n).T @ t2.reshape(m * n, d)
        as_j = np.matmul(dt2, t1.transpose(0, 2, 1)).sum(axis=0)
        dW = np.empty((e, d, d))  # an owning array, so backward adopts it
        np.matmul(vh.T, dt1.reshape(m, d * d), out=dW.reshape(e, d * d))
        return d_gh, as_k + as_j, dW

    return ad.custom_op(s, (gh, gd, W), vjp)


def score_siblings(H, params, pv=None, dropout_rng=None):
    pv = params.tensors if pv is None else pv
    return trilinear(*_head_dep(H, pv, "bin", params.config.p_drop_bin, dropout_rng), pv["W_sib"])


def score_grandparents(H, params, pv=None, dropout_rng=None):
    pv = params.tensors if pv is None else pv
    return trilinear(*_head_dep(H, pv, "bin", params.config.p_drop_bin, dropout_rng), pv["W_gp"])


def score_labels(H, params, pv=None, dropout_rng=None):
    pv = params.tensors if pv is None else pv
    lh, ld = _head_dep(H, pv, "label", params.config.p_drop_label, dropout_rng)
    n = ad.val(H).shape[0] - 1
    return ad.mul(biaffine(_aug(lh), _aug(ld), pv["U_label"]), edge_mask(n)[:, :, None])


def label_distribution(s_label):
    """Per-edge softmax over labels."""
    return ad.softmax(s_label, axis=2)


def score_sentence(sentence, params, pv=None, dropout_rng=None):
    """Full scoring pass: Sentence -> ScoreTensors, differentiable with
    respect to the Vars in pv."""
    pv = params.tensors if pv is None else pv
    H = encode(sentence, params, pv, dropout_rng)
    return ScoreTensors(
        s_edge=score_edges(H, params, pv, dropout_rng),
        s_sib=score_siblings(H, params, pv, dropout_rng),
        s_gp=score_grandparents(H, params, pv, dropout_rng),
        s_label=score_labels(H, params, pv, dropout_rng),
    )


def load_embeddings(path, params):
    """Load plain-text word vectors (token then d_word numbers per line;
    a line of another width, such as a word2vec header, is skipped) into
    the word embedding rows of params, for tokens in the vocabulary, and
    return how many rows were set. Raises ValueError naming the file and
    line of a vector that holds a value which is no finite number, and
    naming the file and d_word when no line has that width."""
    d = params.config.d_word
    loaded = matched = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split()
            if len(parts) != d + 1:
                continue
            matched += 1
            idx = params.word2id.get(parts[0])
            if idx is None:
                continue
            try:
                row = np.array([float(x) for x in parts[1:]])
            except ValueError:
                row = None
            if row is None or not np.isfinite(row).all():
                raise ValueError(f"{path}, line {lineno}: the vector of {parts[0]!r} "
                                 "holds a value that is not a finite number")
            params.tensors["emb_word"][idx] = row
            loaded += 1
    if not matched:
        raise ValueError(f"{path}: no line holds a word and {d} numbers (d_word = {d})")
    return loaded

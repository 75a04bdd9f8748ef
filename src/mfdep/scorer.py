"""Trainable scoring model: embeddings, a one-layer bidirectional GRU
encoder, a biaffine edge scorer, trilinear sibling/grandparent scorers
with weights factored at rank d_bin, and a biaffine labeler. Each layer
is one op over its parameters: ``linear`` for every projection, ``gru``,
``biaffine`` for the edges, ``label_biaffine`` for the labels of the
edges a sentence reads, and ``trilinear_factors``; their VJPs return
fresh arrays, which ``autodiff.backward`` adopts as gradients without a
copy.

Score tensors follow the conventions, on the axes after any leading one:
    s_edge[i, j]     score of edge i -> j
    s_sib[i, j, k]   score of the edge pair {i -> j, i -> k}
    s_gp[i, j, k]    score of the chain i -> j -> k
    label[j-1, l]    score of label l on the edge heads[j-1] -> j
``s_edge`` is unmasked: MFVI alone masks the edges that are no candidate
(root as a dependent, self-loops), and the losses and the decoder read
candidate cells only. The labeler scores one edge per word, given its
head (Dozat & Manning 2017): the gold head in training, the decoded head
in parsing; no score of every pair and label is built. The model gives
``s_sib`` and ``s_gp`` as ``Factors``, the rank-d_bin factors a, b, c of
the cube, s[i, j, k] = sum_r a[i, r] b[j, r] c[k, r], which is never
built; a cell of no valid pair or chain (``sib_mask``) scores 0 whatever
the factors give, and the MFVI kernel applies that rule itself.
``decoder.mfvi`` also takes dense (n+1)^3 cubes, as the oracle does,
through one exact conversion to factors.

A batch of B sentences of one length runs in two halves. The
row-wise layers run once over all B (n+1) encoder rows (``row_layers``):
the edge, label and bin head and dependent projections, the constant-1
column each biaffine reads, and the sibling and grandparent factor
blocks. The edge biaffine runs per sentence on its rows
(``score_sentence``). Once the heads are known, gold in training and
decoded after MFVI in parsing, the label op runs once over the label
rows of the whole batch and those heads (``score_labels``). One shape,
leading axis always, from ``encode`` to the loss: training scores its
one sentence as a batch of B = 1 on leaf Vars, and nothing slices a Var.

Every scoring function reads the parameters from ``pv``: leaf Vars from
``ModelParams.as_vars`` for training, or by default the plain arrays of
``ModelParams.tensors``. Each op returns through ``autodiff.custom_op``,
so plain operands give plain arrays and no graph node; only ``gru`` and
``label_biaffine`` also ask whether a backward pass will come, to keep
what it reads or not.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .conllu import open_text

SPECIALS = {"<root>": 0, "<unk>": 1}  # the id of each special entry in every vocabulary
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


@dataclass(frozen=True)
class Factors:
    """The rank-r factors of a sibling or grandparent score cube, a type
    of its own so that no factor block is taken for a cube of the same
    shape: ``block`` is a (..., 3, n+1, r) Var or array holding a, b and c
    on axis -3, s[..., i, j, k] = sum_r a[..., i, r] b[..., j, r] c[..., k, r]
    on valid cells. A stack of B sentences stacks the blocks on a leading
    axis."""

    block: object


@dataclass
class ScoreTensors:
    s_edge: object  # Var or ndarray, (..., n+1, n+1): (1, n+1, n+1) from score_sentence
    s_sib: object  # Factors, or a dense (..., n+1, n+1, n+1) Var or ndarray
    s_gp: object  # as s_sib
    s_label: object = None  # a dense (n+1, n+1, L) cube, as the criteria give; the model
    # scores labels on the edges a sentence reads (``score_labels``) and leaves it None

    @property
    def n(self):
        return ad.val(self.s_edge).shape[-1] - 1

    def values(self):
        """The four scores with each Var replaced by its value; a
        ``Factors`` stays one, around its plain block."""
        return tuple(Factors(ad.val(s.block)) if isinstance(s, Factors) else ad.val(s)
                     for s in (self.s_edge, self.s_sib, self.s_gp, self.s_label))


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
    word2id, pos2id = dict(SPECIALS), dict(SPECIALS)
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
    shapes["W_sib"] = (3, config.d_bin, config.d_bin)
    shapes["W_gp"] = (3, config.d_bin, config.d_bin)
    return shapes


def init_params(config, word2id, pos2id, labels, seed=0):
    """Initialize all tensors.

    Biases are 0, biaffine (unary) tensors N(0, 1) and each factor of a
    trilinear (binary) weight N(0, (0.0625 / d_bin)^(1/6)): at that scale
    a score has the variance of a dense d_bin^3 weight drawn N(0, 0.25).
    Everything else uses 1/sqrt(fan_in) scaling.
    """
    rng = np.random.default_rng(seed)
    t = {}
    for name, shape in tensor_shapes(config, len(word2id), len(pos2id), len(labels)).items():
        if name.endswith("_b"):
            t[name] = np.zeros(shape)
        elif name in ("U_edge", "U_label"):
            t[name] = rng.normal(0.0, 1.0, size=shape)
        elif name in ("W_sib", "W_gp"):
            t[name] = rng.normal(0.0, (0.0625 / config.d_bin) ** (1 / 6), size=shape)
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
    2-cycle in a chain). The MFVI kernel gives these cells no weight
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


def _rows(x, d):
    """Direction d of an (n1, 2, B, k) array in step order, as an owning
    (B n1, k) array in position order: row b n1 + t is position t of
    column b."""
    steps = x[:, 0] if d == 0 else x[::-1, 1]
    n1, B, k = steps.shape
    out = np.empty((B * n1, k))
    out.reshape(B, n1, k)[...] = steps.transpose(1, 0, 2)
    return out


def gru(A, U, B=1):
    """Both GRU directions over precomputed input projections of B
    sentences of one length, in lockstep, differentiable.

    A = (A_z, A_r, A_h) of the forward direction followed by those of the
    backward one: the (B n1, dh) input projections x_t W_g^T + b_g of the
    update gate, the reset gate and the candidate state, sentence after
    sentence (row b n1 + t is position t of sentence b). U likewise holds
    the six (dh, dh) recurrent matrices (U_z, U_r, U_h). From h = 0, each
    step of a direction computes
        z = sigmoid(A_z[t] + U_z h),  r = sigmoid(A_r[t] + U_r h),
        c = tanh(A_h[t] + U_h (r * h)),  h = (1 - z) * h + z * c,
    the forward direction for t = 0 .. n1-1 and the backward one for
    t = n1-1 .. 0. Row b n1 + t of the (B n1, 2 dh) result is both h of
    sentence b at t, forward first. Step s runs forward position s and
    backward position n1-1-s of every sentence together: the state is
    both directions' h as a (2, dh, B) stack of B columns, each recurrent
    product one np.matmul over the directions' stacked matrices, and the
    gate arithmetic one pass over stacked arrays. Per element the
    arithmetic is that of one direction of one sentence at a time; at
    B = 1 the result is bit-identical to it, and at B > 1 a product of B
    columns may round otherwise than B products of one (GEMM against
    GEMV). One shape, leading axis always: the result is (B, n1, 2 dh).
    The VJP is hand-written backpropagation through time in the same
    lockstep; every adjoint it returns owns its data. With no Var
    operand, every step writes its gates into one reused buffer."""
    a = [ad.val(x) for x in A]
    u = [ad.val(x) for x in U]
    dh = a[0].shape[1]
    n1 = a[0].shape[0] // B
    a = [x.reshape(B, n1, dh) for x in a]

    def columns(*parts):
        # step order, states as columns: [s, 0, :, b] is forward position s
        # of sentence b and [s, 1, :, b] its backward position n1-1-s
        x = np.concatenate(parts, axis=2)
        return np.ascontiguousarray(x.reshape(B, n1, 2, -1).transpose(1, 2, 3, 0))

    # z and r side by side, so that one elementwise logistic serves both gates
    azr = columns(a[0], a[1], a[3][:, ::-1], a[4][:, ::-1])
    ah = columns(a[2], a[5][:, ::-1])
    # C-ordered stacks (np.concatenate would keep a Fortran-ordered input's
    # layout, and BLAS rounds a transposed operand differently)
    uzr = np.array((u[0], u[1], u[3], u[4])).reshape(2, 2 * dh, dh)
    uh = np.array((u[2], u[5]))
    parents = (*A, *U)
    keep = ad.any_var(parents)  # only the VJP reads the gates of every step
    gates = n1 if keep else 1
    ZR, C = np.empty((gates, 2, 2 * dh, B)), np.empty((gates, 2, dh, B))
    H = np.empty((n1, 2, dh, B))
    h = np.zeros((2, dh, B))
    for s in range(n1):
        slot = s if keep else 0
        zr = ad.logistic(azr[s] + np.matmul(uzr, h), out=ZR[slot])
        z, r = zr[:, :dh], zr[:, dh:]
        c = np.tanh(ah[s] + np.matmul(uh, r * h), out=C[slot])
        h = np.add((1.0 - z) * h, z * c, out=H[s])
    out = np.empty((B, n1, 2 * dh))
    out[..., :dh] = H[:, 0].transpose(2, 0, 1)
    out[..., dh:] = H[::-1, 1].transpose(2, 0, 1)
    if not keep:
        return out
    # the backward pass works on rows: [s, d, b] is column b's state
    ZR, C, H = (np.ascontiguousarray(x.transpose(0, 1, 3, 2)) for x in (ZR, C, H))
    Hp = np.zeros((n1, 2, B, dh))  # the state each step started from
    Hp[1:] = H[:-1]

    def bptt(g):
        G = np.empty((n1, 2, B, dh))
        G[:, 0] = g[:, :, :dh].transpose(1, 0, 2)
        G[:, 1] = g[:, ::-1, dh:].transpose(1, 0, 2)
        dZR, dC = np.empty((n1, 2, B, 2 * dh)), np.empty((n1, 2, B, dh))
        carry = np.zeros((2, B, dh))  # dL/dh flowing back from later steps
        for s in range(n1 - 1, -1, -1):
            dh_s = G[s] + carry
            zr, c, hp = ZR[s], C[s], Hp[s]
            z, r = zr[..., :dh], zr[..., dh:]
            dC[s] = dcs = dh_s * z * (1.0 - c * c)
            drh = np.matmul(dcs, uh)
            dZR[s, ..., :dh] = dh_s * (c - hp)
            dZR[s, ..., dh:] = drh * hp
            dZR[s] *= zr * (1.0 - zr)
            carry = dh_s * (1.0 - z) + drh * r + np.matmul(dZR[s], uzr)
        dA, dU = [], []
        for d in (0, 1):
            dz, dr, dc = _rows(dZR[..., :dh], d), _rows(dZR[..., dh:], d), _rows(dC, d)
            hp = _rows(Hp, d)
            dA += (dz, dr, dc)
            dU += (dz.T @ hp, dr.T @ hp, dc.T @ (_rows(ZR[..., dh:], d) * hp))
        return (*dA, *dU)

    return ad.custom_op(out, parents, bptt)


def encode(sentences, params, pv=None, dropout_rng=None):
    """Contextual representations of B sentences of one length n, one
    row per position (row 0 = root): the (B, n+1, 2 d_hidden) output of
    ``gru``, one shape, leading axis always. The embeddings of all
    B (n+1) rows are gathered, projected by each GRU gate and run through
    ``gru`` as one group of B columns."""
    pv = params.tensors if pv is None else pv
    n = len(sentences[0])
    if any(len(s) != n for s in sentences):
        raise ValueError("encode takes sentences of one length")
    root, unk = SPECIALS["<root>"], SPECIALS["<unk>"]
    wids, pids = [], []
    for sent in sentences:
        wids += [root] + [params.word2id.get(t.form, unk) for t in sent.tokens]
        pids += [root] + [params.pos2id.get(t.upos, unk) for t in sent.tokens]
    E = ad.concat(
        [ad.take_at(pv["emb_word"], (wids,)), ad.take_at(pv["emb_pos"], (pids,))],
        axis=1,
    )
    E = _dropout(E, params.config.p_drop_embed, dropout_rng)
    A = [_proj(E, pv, f"gru_{d}_{g}") for d in ("fw", "bw") for g in _GATES]
    return gru(A, [pv[f"gru_{d}_{g}_U"] for d in ("fw", "bw") for g in _GATES], len(sentences))


def _aug(x):
    # append a constant-1 column (bias augmentation)
    ones = np.ones((*ad.val(x).shape[:-1], 1))
    return ad.concat([x, ones], axis=-1)


def linear(x, W, b):
    """x @ W.T + b, differentiable: the (..., d_in) rows of x projected by
    the (d_out, d_in) W, plus the (d_out,) bias b. One shape, leading axis
    always: y and dW each take a batch's (B, m, d_in) rows in one product."""
    vx, vw, vb = ad.val(x), ad.val(W), ad.val(b)
    rows = vx.reshape(-1, vx.shape[-1])
    y = (rows @ vw.T + vb).reshape(*vx.shape[:-1], -1)

    def vjp(g):
        g_rows = g.reshape(-1, g.shape[-1])
        return g @ vw, g_rows.T @ rows, g_rows.sum(axis=0)

    return ad.custom_op(y, (x, W, b), vjp)


def _proj(H, pv, role):
    return linear(H, pv[f"{role}_W"], pv[f"{role}_b"])


def _head_dep(H, pv, role, p, dropout_rng):
    """The head and the dependent projection of one scorer, each of H
    under a dropout draw of its own."""
    return [_proj(_dropout(H, p, dropout_rng), pv, f"{role}_{r}") for r in ("head", "dep")]


def biaffine(lh, ld, U):
    """s[..., i, j] = sum_ab lh[..., i, a] U[a, b] ld[..., j, b], differentiable:
    lh is (..., m, a), ld (..., n, b), U (a, b) and s (..., m, n). Batched
    BLAS matmuls, each sentence of a batch bit-identical to its own call;
    dU takes the batch's rows in one product."""
    vh, vd, vu = ad.val(lh), ad.val(ld), ad.val(U)
    t1 = vh @ vu
    s = t1 @ vd.swapaxes(-1, -2)

    def vjp(g):
        dt1 = g @ vd
        dU = vh.reshape(-1, vh.shape[-1]).T @ dt1.reshape(-1, dt1.shape[-1])
        return dt1 @ vu.T, g.swapaxes(-1, -2) @ t1, dU

    return ad.custom_op(s, (lh, ld, U), vjp)


def score_edges(rows, params, pv=None):
    """Edge scores, (..., n+1, n+1): the biaffine over ``U_edge`` of the
    (..., n+1, d_edge+1) head and dependent rows (``RowLayers.edge``)."""
    pv = params.tensors if pv is None else pv
    return biaffine(*rows, pv["U_edge"])


def trilinear_factors(gh, gd, W):
    """The factors of the trilinear form of Wang, Huang & Tu (2019), its
    weight tensor factored at rank r, as one ``Factors`` block,
    differentiable: a = gh W[0], b = gd W[1] and c = gd W[2], so that
    s[i,j,k] = sum_r a[i,r] b[j,r] c[k,r] on the valid cells (``sib_mask``).

    gh and gd are (n, d), W is the (3, d, r) stack of the head, the
    dependent and the second-dependent factor, and the block is (3, n, r).
    One shape, leading axis always: a batch's (B, n, d) gives a
    (B, 3, n, r) block, each sentence's bit-identical to its own call,
    and the VJP flattens the batch's rows.
    No (n, n, n) cube is built: the MFVI kernel reads the factors. The
    cost is O(n d r) in time and memory."""
    vh, vd, vw = ad.val(gh), ad.val(gd), ad.val(W)
    block = np.empty((*vh.shape[:-2], 3, vh.shape[-2], vw.shape[2]))
    np.matmul(vh, vw[0], out=block[..., 0, :, :])
    np.matmul(vd[..., None, :, :], vw[1:], out=block[..., 1:, :, :])

    def vjp(g):
        g = np.moveaxis(g, -3, 0)  # (3, ..., n, r)
        rows = g.reshape(3, -1, g.shape[-1])
        dW = np.empty(vw.shape)  # an owning array, so backward adopts it
        np.matmul(vh.reshape(-1, vh.shape[-1]).T, rows[0], out=dW[0])
        np.matmul(vd.reshape(-1, vd.shape[-1]).T, rows[1:], out=dW[1:])
        return g[0] @ vw[0].T, g[1] @ vw[1].T + g[2] @ vw[2].T, dW

    return Factors(ad.custom_op(block, (gh, gd, W), vjp))


def score_siblings(bins, params, pv=None):
    pv = params.tensors if pv is None else pv
    return trilinear_factors(*bins, pv["W_sib"])


def score_grandparents(bins, params, pv=None):
    pv = params.tensors if pv is None else pv
    return trilinear_factors(*bins, pv["W_gp"])


def label_biaffine(lh, ld, heads, U):
    """Label scores of the n edges each sentence of a batch reads,
    differentiable: s[b, j-1, l] = sum_xy lh[b, h, x] U[l, x, y] ld[b, j, y]
    with h = heads[b, j-1], for the (B, n+1, a) head rows lh and
    (B, n+1, b) dependent rows ld (row 0 the root), the plain (B, n)
    integer array of each word's head and the (L, a, b) U; s is (B, n, L).
    No score of an edge that is not read is built.

    One label at a time: the (B, n, b) product lh[heads] U_l, a batched
    matmul, then its rowwise dot with ld, so each sentence of a batch is
    bit-identical to its own call. Work memory is O(B n b) per label when
    nothing asks for a gradient; with a Var operand each label's product
    is kept for the VJP. The VJP adds the adjoint of every read head row
    into lh, a head read twice or the root included."""
    vh, vd, vu = ad.val(lh), ad.val(ld), ad.val(U)
    heads = np.asarray(heads, dtype=np.intp)
    B, n = heads.shape
    L = vu.shape[0]
    rows = np.arange(B)[:, None]
    H, D = vh[rows, heads], vd[:, 1:]
    keep = ad.any_var((lh, ld, U))  # only the VJP reads every label's product
    T = np.empty((L if keep else 1, B, n, vu.shape[2]))
    s = np.empty((B, n, L))
    for l in range(L):
        t = np.matmul(H, vu[l], out=T[l if keep else 0])
        s[..., l] = np.einsum("bjy,bjy->bj", t, D)
    if not keep:
        return s

    def vjp(g):
        Hf = H.reshape(-1, H.shape[-1])
        dH, dU = np.zeros(Hf.shape), np.empty(vu.shape)
        dlh, dld = np.zeros(vh.shape), np.zeros(vd.shape)
        dD = dld[:, 1:]  # the root row of ld is read by no edge
        for l in range(L):
            gl = g[..., l, None]
            dt = (gl * D).reshape(-1, D.shape[-1])
            np.matmul(Hf.T, dt, out=dU[l])
            dH += dt @ vu[l].T
            dD += gl * T[l]
        np.add.at(dlh, (rows, heads), dH.reshape(H.shape))
        return dlh, dld, dU

    return ad.custom_op(s, (lh, ld, U), vjp)


def score_labels(rows, heads, params, pv=None):
    """Label scores, (B, n, L), of the edges heads[b, j-1] -> j of each
    sentence b that the (B, n+1, d_label+1) head and dependent rows
    (``RowLayers.label``) give: ``label_biaffine`` over ``U_label``. The
    heads are plain integers, gold in training and decoded in parsing."""
    pv = params.tensors if pv is None else pv
    return label_biaffine(*rows, heads, pv["U_label"])


def label_distribution(s_label):
    """Per-edge softmax over labels, the last axis."""
    return ad.softmax(s_label, axis=-1)


@dataclass
class RowLayers:
    """What the row-wise layers give a batch of B sentences of one length
    n (``row_layers``): the edge and the label head and dependent rows,
    each projection with the constant-1 column its biaffine reads,
    (B, n+1, d+1), and the sibling and grandparent ``Factors``, blocks of
    (B, 3, n+1, d_bin): one shape, leading axis always. ``score_sentence``
    reads one sentence's edge rows and blocks; the label rows of the whole
    batch go to ``score_labels`` once the batch's heads are known."""

    edge: list
    s_sib: Factors
    s_gp: Factors
    label: list

    def sentence(self, b):
        """Sentence b's rows of each plain layer, a batch of one, x[b:b+1]."""
        one = slice(b, b + 1)
        return RowLayers([x[one] for x in self.edge], Factors(self.s_sib.block[one]),
                         Factors(self.s_gp.block[one]), [x[one] for x in self.label])


def row_layers(H, params, pv=None, dropout_rng=None):
    """The row-wise layers of the batch that H encodes (``encode``), each
    one op over all its rows: the bin head and dependent projections,
    which both trilinear scorers read, the edge projections, the sibling
    and grandparent factors, and the label projections, in that order,
    each projection under a dropout draw of its own."""
    pv = params.tensors if pv is None else pv
    cfg = params.config
    bins = _head_dep(H, pv, "bin", cfg.p_drop_bin, dropout_rng)
    edge = [_aug(x) for x in _head_dep(H, pv, "edge", cfg.p_drop_edge, dropout_rng)]
    return RowLayers(edge, score_siblings(bins, params, pv), score_grandparents(bins, params, pv),
                     [_aug(x) for x in _head_dep(H, pv, "label", cfg.p_drop_label, dropout_rng)])


def score_sentence(sentence, params, rows, pv=None):
    """The ScoreTensors of the sentence whose row-wise layers, a batch of
    one, are ``rows``, differentiable with respect to the Vars in pv: its
    edge biaffine and its factor blocks, with no ``s_label``, since its
    labels are scored on the heads it reads (``score_labels``). Every
    score keeps the leading axis of one; only perfbench's counting hook
    reads sentence."""
    pv = params.tensors if pv is None else pv
    return ScoreTensors(score_edges(rows.edge, params, pv), rows.s_sib, rows.s_gp)


def load_embeddings(path, params):
    """Load plain-text word vectors (token then d_word numbers per line;
    a line of another width, such as a word2vec header, is skipped) into
    the word embedding rows of params, for tokens in the vocabulary, and
    return how many rows were set. Raises ValueError naming the file and
    line of a vector that holds a value which is no finite number, and
    naming the file and d_word when no line has that width."""
    d = params.config.d_word
    loaded = matched = 0
    with open_text(path) as f:
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

"""Losses, Adam/AMSGrad optimization and the training loop."""
from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import decoder
from .conllu import filter_long, open_text, require_annotated
from .evaluator import uas_las
from .scorer import (
    MODEL_DIMS,
    SPECIALS,
    ModelConfig,
    ModelParams,
    ScoreTensors,
    build_vocabs,
    check_range,
    edge_mask,
    encode,
    init_params,
    label_distribution,
    row_layers,
    score_labels,
    score_sentence,
    tensor_shapes,
    variant_row,
)
from .tree import DependencyTree, decode

LOG_FLOOR = -30.0  # per-term floor keeping losses finite on degenerate posteriors
_P_FLOOR = float(np.exp(LOG_FLOOR))


@dataclass
class TrainConfig:
    variant: str = "local2o"
    lam: float = None  # interpolation; default: the variant's
    iterations: int = None  # MFVI iterations T; default: the variant's
    learning_rate: float = 0.01
    adam_beta1: float = 0.0
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    decay_rate: float = 0.85
    decay_step: int = 500  # iterations without dev improvement
    amsgrad_after: int = 5000
    max_iterations: int = 75000
    batch_tokens: int = 6000
    early_stop: int = 10000
    eval_every: int = 100
    max_train_len: int = 90
    dev_metric: str = "las"  # or "uas"
    scale: float = 1.0  # desk-scale shrink factor for the schedule
    seed: int = 0
    dropout: bool = False
    single_root: bool = True

    def __post_init__(self):
        row = variant_row(self.variant)
        if self.dev_metric not in ("las", "uas"):
            raise ValueError(f"dev_metric must be 'las' or 'uas', not {self.dev_metric!r}")
        self.lam = row.lam if self.lam is None else self.lam
        self.iterations = row.iterations if self.iterations is None else self.iterations
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        check_range(self, ("max_iterations", "eval_every", "decay_step", "amsgrad_after",
                           "early_stop", "batch_tokens", "max_train_len"),
                    lambda v: v >= 1, "be >= 1")
        check_range(self, ("iterations", "seed"), lambda v: v >= 0, "be >= 0")
        check_range(self, ("scale", "learning_rate", "adam_eps"), lambda v: 0 < v < np.inf,
                    "be > 0 and finite")
        check_range(self, ("adam_beta1", "adam_beta2"), lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
        check_range(self, ("decay_rate",), lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
        if row.iterations == 0:  # a first-order parser runs no MFVI iteration
            self.iterations = 0

    def scaled(self, name):
        return max(1, int(round(getattr(self, name) / self.scale)))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _floored_log(p):
    return ad.log(ad.clip_min(p, _P_FLOOR))


def edge_loss_local(q_final, gold_heads):
    """-sum_j log Q_j(gold head of j); each loss reads row 0 of a stack of one."""
    n = len(gold_heads)
    deps = np.arange(1, n + 1)
    picked = ad.take_at(q_final, (0, gold_heads, deps))
    return ad.mul(ad.sum_all(_floored_log(picked)), -1.0)


def edge_loss_single(q_final, gold_heads):
    """Binary cross-entropy over every candidate edge."""
    n = len(gold_heads)
    mask = edge_mask(n).astype(bool)
    gold = np.zeros_like(mask)
    for j, h in enumerate(gold_heads, start=1):
        gold[int(h), j] = True
    gi, gj = np.nonzero(gold & mask)
    ni, nj = np.nonzero(mask & ~gold)
    pos = ad.take_at(q_final, (0, gi, gj))
    neg = ad.take_at(q_final, (0, ni, nj))
    loss_pos = ad.sum_all(_floored_log(pos))
    loss_neg = ad.sum_all(_floored_log(ad.sub(1.0, neg)))
    return ad.mul(ad.add(loss_pos, loss_neg), -1.0)


def label_loss(p_label, gold_labels):
    """Cross-entropy of the gold labels, given the (1, n, L) label
    distribution of the gold-head edges (``score_labels`` on gold heads)."""
    words = np.arange(len(gold_labels))
    picked = ad.take_at(p_label, (0, words, gold_labels))
    return ad.mul(ad.sum_all(_floored_log(picked)), -1.0)


def total_loss(l_edge, l_label, lam):
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    return ad.add(ad.mul(l_label, lam), ad.mul(l_edge, 1.0 - lam))


def sentence_loss(sentence, params, variant, T, lam, dropout_rng=None, pv=None):
    """Full differentiable pipeline: encode -> scores -> MFVI -> loss,
    the sentence a batch of one throughout, as in parsing.

    Returns (loss, tape, pv), pv the leaf Vars given or by default
    ``params.as_vars()``; ``tape.backward(loss)`` is ``ad.backward``."""
    pv = params.as_vars() if pv is None else pv
    rows = row_layers(encode([sentence], params, pv, dropout_rng), params, pv, dropout_rng)
    scores = score_sentence(sentence, params, rows, pv)
    post = decoder.mfvi(scores, variant, T)
    gold_heads = sentence.gold_heads
    edge_loss = {"local": edge_loss_local, "single": edge_loss_single}
    l_edge = edge_loss[variant_row(variant).posterior](post.final, gold_heads)
    p_label = label_distribution(score_labels(rows.label, [gold_heads], params, pv))
    gold_labels = [params.labels.index(lbl) for lbl in sentence.gold_labels]
    l_label = label_loss(p_label, gold_labels)
    return total_loss(l_edge, l_label, lam), ad.Tape(), pv


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


_ADAM_BLOCK = 1 << 15  # elements per block: a block of p, m, v, g stays in cache


class AdamState:
    def __init__(self, tensors):
        self.t = 0
        self.m = None  # allocated on the first step with beta1 != 0
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.vmax = None  # allocated on the first AMSGrad step
        self.amsgrad = False
        self.skipped = 0
        self.work = np.empty((2, _ADAM_BLOCK))
        self.finite = np.empty(_ADAM_BLOCK, dtype=bool)


def _blocks(size):
    for lo in range(0, size, _ADAM_BLOCK):
        yield lo, min(lo + _ADAM_BLOCK, size)


def adam_step(params, grads, state, config, lr=None):
    """One (AMS)Adam update in place. Returns False (and changes nothing)
    if any gradient is non-finite.

    Each tensor is walked once, in blocks of ``_ADAM_BLOCK`` elements,
    through the state's two work buffers. Per element the operations and
    their order are those of the whole-array formula

        m = b1 m + (1 - b1) g,  v = b2 v + ((1 - b2) g) g,
        p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps)

    (v replaced by its running max under AMSGrad), so the update is
    bit-identical to it. With b1 = 0 the first moment is g itself and
    bc1 is 1, so g stands in for m / bc1 and no m is kept: bit-identical
    too, except that a parameter of -0.0 given a gradient of -0.0 may
    become +0.0 where the formula keeps -0.0. Parameter tensors must be
    C-contiguous."""
    flat = {name: g.reshape(-1) for name, g in grads.items()}
    for g in flat.values():
        for lo, hi in _blocks(g.size):
            if not np.isfinite(g[lo:hi], out=state.finite[: hi - lo]).all():
                state.skipped += 1
                return False
    if lr is None:
        lr = config.learning_rate
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    state.t += 1
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    if b1 != 0.0 and state.m is None:
        state.m = {k: np.zeros_like(v) for k, v in state.v.items()}
    if state.amsgrad and state.vmax is None:
        state.vmax = {k: np.zeros_like(v) for k, v in state.v.items()}
    for name, p in params.tensors.items():
        g = flat.get(name)
        if g is None:
            continue
        if not p.flags.c_contiguous:
            raise ValueError(f"parameter tensor {name!r} is not C-contiguous")
        p = p.reshape(-1)
        m = state.m[name].reshape(-1) if b1 != 0.0 else None
        v = state.v[name].reshape(-1)
        vmax = state.vmax[name].reshape(-1) if state.amsgrad else None
        for lo, hi in _blocks(p.size):
            gb, vb, pb = g[lo:hi], v[lo:hi], p[lo:hi]
            a, b = state.work[:, : hi - lo]
            vb *= b2
            np.multiply(1.0 - b2, gb, out=a)
            vb += np.multiply(a, gb, out=a)
            if vmax is None:
                np.divide(vb, bc2, out=a)
            else:
                xb = vmax[lo:hi]
                np.divide(np.maximum(xb, vb, out=xb), bc2, out=a)
            np.sqrt(a, out=a)
            a += eps
            if m is None:  # b1 = 0: m / bc1 is g
                np.multiply(lr, gb, out=b)
            else:
                mb = m[lo:hi]
                mb *= b1
                mb += np.multiply(1.0 - b1, gb, out=b)
                np.multiply(lr, np.divide(mb, bc1, out=b), out=b)
            pb -= np.divide(b, a, out=b)
    return True


# ---------------------------------------------------------------------------
# Batching and the loop
# ---------------------------------------------------------------------------


def make_batches(sentences, batch_tokens, rng=None):
    order = np.arange(len(sentences))
    if rng is not None:
        rng.shuffle(order)
    batches = []
    cur, tokens = [], 0
    for idx in order:
        n = len(sentences[idx])
        if cur and tokens + n > batch_tokens:
            batches.append(cur)
            cur, tokens = [], 0
        cur.append(int(idx))
        tokens += n
    if cur:
        batches.append(cur)
    return batches


def batch_gradients(batch_sents, params, config, dropout_rng=None):
    """Mean loss and gradient over a batch; sentences are processed in a
    canonical (corpus-index) order so the reduction is deterministic.
    Each sentence is a batch of one (one shape, leading axis always), and
    its backward adds into one set of leaf Vars: a parameter is read once
    per sentence, so its gradient is g1 + g2 + ... in sentence order,
    g1 adopted, which equals adding it into zeros except that a -0.0
    stays -0.0. Tensors that get no gradient get zeros."""
    pv = params.as_vars()
    total = 0.0
    for sent in batch_sents:
        loss, _, _ = sentence_loss(
            sent, params, config.variant, config.iterations, config.lam,
            dropout_rng=dropout_rng, pv=pv,
        )
        ad.backward(loss)
        total += float(loss.value)
    grads = {
        name: np.zeros_like(v) if pv[name].grad is None else pv[name].grad
        for name, v in params.tensors.items()
    }
    k = max(1, len(batch_sents))
    if k > 1:
        for g in grads.values():
            g /= k
    return total / k, grads


PARSE_WINDOW = 512  # encoder rows, n + 1 per sentence, of one batch of a parse
PARSE_CELLS = 1 << 17  # factor floats, B (n+1) 6 d_bin, of one MFVI call over B sentences


def _batches(sentences, d_bin):
    """Positions of sentences of one length n, in batches of at most
    ``PARSE_WINDOW`` // (n+1) and ``PARSE_CELLS`` // ((n+1) 6 d_bin)
    sentences, and at least one: the lengths in the order of their first
    sentences, the positions of a length in input order. A sentence's
    sibling and grandparent factors hold 6 d_bin floats per encoder row."""
    groups = {}  # length -> positions, in input order
    for k, sent in enumerate(sentences):
        groups.setdefault(len(sent), []).append(k)
    for n, ks in groups.items():
        size = max(1, min(PARSE_WINDOW, PARSE_CELLS // (6 * d_bin)) // (n + 1))
        for c in range(0, len(ks), size):
            yield ks[c:c + size]


def _parse_batch(params, batch, variant, T, single_root):
    """Trees of sentences of one length: the batch is encoded at once
    (``encode``) and its row-wise layers run once over all its rows
    (``row_layers``); each sentence's edge biaffine runs on its rows, a
    batch of one (``score_sentence``); MFVI runs once over the stack of
    their edge scores and the batch's sibling and grandparent factor
    blocks, and each sentence's heads are decoded on its row (``decode``,
    MST fallback included). One label op then scores the batch's decoded
    edges (``score_labels``), and each word takes its best label, ties to
    the smallest id. Returning frees the batch's encodings, scores and
    MFVI iterates."""
    rows = row_layers(encode(batch, params), params)
    edges = np.concatenate([score_sentence(sent, params, rows.sentence(b)).s_edge
                            for b, sent in enumerate(batch)])
    stack, label = ScoreTensors(edges, rows.s_sib, rows.s_gp), rows.label
    del rows  # frees the projections before MFVI; the stack holds the factor blocks
    probs = decoder.mfvi(stack, variant, T).head_probs()
    decoded = [decode(p, single_root) for p in probs]
    labels = score_labels(label, np.stack([h for h, _ in decoded]), params).argmax(axis=-1)
    return [DependencyTree(h, lab, mst) for (h, mst), lab in zip(decoded, labels)]


def parse_sentences(params, sentences, variant=None, T=None, single_root=True):
    """The one inference loop: encode, score, MFVI, decode; one
    DependencyTree per sentence, in input order. The whole input is cut
    into batches of sentences of one length (``_batches``), and each
    batch is encoded in one GRU pass, run through each row-wise scoring
    layer once and through the edge biaffine per sentence, then through
    one MFVI call, decoded per sentence and labelled by one label op
    (``_parse_batch``). ``variant`` defaults to the checkpoint's, and
    ``T`` to the checkpoint's when the variant is the checkpoint's (to
    ``mfvi``'s default otherwise)."""
    if variant is None:
        variant = params.config.variant
    if T is None and variant == params.config.variant:
        T = params.config.iterations
    trees = [None] * len(sentences)
    for ks in _batches(sentences, params.config.d_bin):
        parsed = _parse_batch(params, [sentences[k] for k in ks], variant, T, single_root)
        for k, tree in zip(ks, parsed):
            trees[k] = tree
    return trees


def evaluate(params, sentences, variant=None, T=None, single_root=True):
    """UAS, LAS and counts of ``parse_sentences`` (same defaults) against
    gold, punctuation skipped by UPOS (``uas_las``'s default)."""
    trees = parse_sentences(params, sentences, variant, T, single_root)
    pred = [(t.heads, [params.labels[i] for i in t.labels]) for t in trees]
    return uas_las(pred, sentences)


@dataclass
class TrainResult:
    params: ModelParams
    history: list = field(default_factory=list)
    best_dev: float = -1.0
    iterations_run: int = 0


def initial_params(corpus, config, model_config=None):
    """The parameters ``train`` starts from when given none: vocabularies
    of the sentences it keeps, and the dimensions of ``model_config``
    (default: the variant's)."""
    if model_config is None:
        model_config = ModelConfig(variant=config.variant)
    w2i, p2i, labels = build_vocabs(filter_long(corpus, config.max_train_len))
    return init_params(model_config, w2i, p2i, labels, seed=config.seed)


def train(corpus, dev, config, params=None, model_config=None, log=None, target_uas=None):
    """Token-budget batch training with LR decay, AMSGrad switch and
    early stopping, all driven by dev-set improvement. The returned
    params record ``config.variant`` and ``config.iterations``, and the
    ModelConfig passed in is left as it was. Raises ConlluError
    before any work if a corpus or dev word lacks a valid gold HEAD or a
    DEPREL, and ValueError if the dev set is empty (no evaluation could
    pick a snapshot) or the training sentences it keeps hold no word."""
    require_annotated(corpus, "training corpus")
    require_annotated(dev, "dev set")
    if not dev:
        raise ValueError("empty dev set")
    corpus = filter_long(corpus, config.max_train_len)
    if not any(len(s) for s in corpus):
        raise ValueError(f"training corpus has no words (sentences longer than "
                         f"max_train_len = {config.max_train_len} are dropped)")
    if params is None:
        params = initial_params(corpus, config, model_config)

    rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1) if config.dropout else None
    state = AdamState(params.tensors)
    lr = config.learning_rate
    max_iters = config.scaled("max_iterations")
    eval_every = config.scaled("eval_every")
    decay_step = config.scaled("decay_step")
    amsgrad_after = config.scaled("amsgrad_after")
    early_stop = config.scaled("early_stop")

    result = TrainResult(params=None)  # a copy of params once dev improves
    best = -1.0
    since_improvement = 0
    since_decay = 0
    iteration = 0
    batches = []
    while iteration < max_iters:
        if not batches:
            batches = make_batches(corpus, config.batch_tokens, rng)
        batch_ids = batches.pop(0)
        batch = [corpus[i] for i in sorted(batch_ids)]
        iteration += 1
        loss, grads = batch_gradients(batch, params, config, dropout_rng)
        stepped = adam_step(params, grads, state, config, lr=lr)
        del grads  # not kept through evaluation and the next backward
        entry = {"iteration": iteration, "loss": loss, "lr": lr, "stepped": stepped}
        result.history.append(entry)  # an evaluation adds its scores in place

        if iteration % eval_every == 0 or iteration == max_iters:
            uas, las, _ = evaluate(
                params, dev, config.variant, config.iterations, config.single_root
            )
            metric = las if config.dev_metric == "las" else uas
            entry.update({"dev_uas": uas, "dev_las": las})
            if metric > best:
                best = metric
                if result.params is None:
                    result.params = params.copy()
                else:
                    for name, v in params.tensors.items():
                        np.copyto(result.params.tensors[name], v)
                result.best_dev = best
                since_improvement = 0
                since_decay = 0
            else:
                since_improvement += eval_every
                since_decay += eval_every
            if since_decay >= decay_step:
                lr *= config.decay_rate
                since_decay = 0
            if not state.amsgrad and since_improvement >= amsgrad_after:
                state.amsgrad = True
            if log:
                log(
                    f"iter {iteration} loss {loss:.4f} lr {lr:.5f} "
                    f"dev UAS {uas:.2f} LAS {las:.2f}"
                )
            if (target_uas is not None and uas >= target_uas) or since_improvement >= early_stop:
                break
    result.iterations_run = iteration
    if result.params is None:  # dev never improved: keep final params
        result.params = params.copy()
    result.params.config = replace(
        result.params.config, variant=config.variant, iterations=config.iterations
    )
    return result


# ---------------------------------------------------------------------------
# Checkpoint and config-file formats
# ---------------------------------------------------------------------------

_MAGIC = b"MFD1"
_VERSION = 2  # 1 held dense (d_bin, d_bin, d_bin) W_sib and W_gp


def save_model(params, path):
    header = {
        "config": asdict(params.config),
        "word2id": params.word2id,
        "pos2id": params.pos2id,
        "labels": params.labels,
        "tensors": [[k, list(v.shape)] for k, v in sorted(params.tensors.items())],
    }
    hbytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(hbytes)))
        f.write(hbytes)
        for k, _ in header["tensors"]:
            f.write(np.ascontiguousarray(params.tensors[k], dtype="<f8"))


def _check_tensor_shapes(header, cfg):
    """Raise ValueError unless the checkpoint holds exactly the tensors,
    with the shapes, that its config, vocabularies and labels imply."""
    expected = tensor_shapes(
        cfg, len(header["word2id"]), len(header["pos2id"]), len(header["labels"])
    )
    found = {name: tuple(shape) for name, shape in header["tensors"]}
    missing = sorted(expected.keys() - found.keys())
    if missing:
        raise ValueError("checkpoint lacks tensor " + ", ".join(
            f"{name!r} (expected shape {expected[name]})" for name in missing
        ))
    extra = sorted(found.keys() - expected.keys())
    if extra:
        raise ValueError("checkpoint has unexpected tensor " + ", ".join(map(repr, extra)))
    for name, shape in expected.items():
        if found[name] != shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {found[name]}, expected {shape}"
            )


_HEADER = {"config": (dict, "an object"), "word2id": (dict, "an object"),
           "pos2id": (dict, "an object"), "labels": (list, "an array"),
           "tensors": (list, "an array")}


def _check_header(header):
    """Raise ValueError, naming the key, unless the decoded JSON header
    is an object holding each key of ``_HEADER`` with its type, the ids
    of 'word2id' and 'pos2id' are the integers 0..V-1, each once, with
    the ids of ``SPECIALS``, the 'labels' are distinct strings, at least
    one, and each 'tensors' entry is a [name, shape] pair, shape a list
    of integers."""
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    for key, (kind, name) in _HEADER.items():
        if key not in header:
            raise ValueError(f"checkpoint header lacks {key!r}")
        if not isinstance(header[key], kind):
            raise ValueError(f"checkpoint header {key!r} must be {name}")
    for key in ("word2id", "pos2id"):
        ids = header[key].values()
        if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(ids))):
            raise ValueError(f"checkpoint header {key!r} ids must be the integers "
                             f"0..{len(ids) - 1}, each once")
        for token, i in SPECIALS.items():
            if header[key].get(token) != i:
                raise ValueError(f"checkpoint header {key!r} must give {token!r} the id {i}")
    labels = header["labels"]
    if not labels or any(type(x) is not str for x in labels) or len(set(labels)) < len(labels):
        raise ValueError("checkpoint header 'labels' must be distinct strings, at least one")
    for entry in header["tensors"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list) and all(type(d) is int for d in entry[1])):
            raise ValueError(f"checkpoint header 'tensors' entry {entry!r} "
                             f"is no [name, shape] pair")


def load_model(path):
    """The ModelParams of the checkpoint at path. Raises ValueError,
    naming path, on a file that is no checkpoint ``save_model`` could
    have written: bad magic, a truncated preamble or tensor, another
    version (version 1, which held dense trilinear weights, says that the
    model must be retrained), a header that is no valid JSON, lacks a
    key or holds vocabularies that cannot index its tensors, a config
    that ``ModelConfig`` refuses, tensors other than the config implies,
    a size other than the header implies, or a tensor that holds NaN or
    an infinity."""
    with open(path, "rb") as f:
        try:
            return _read_model(f)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _read_model(f):
    preamble = f.read(12)
    if preamble[:4] != _MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    if len(preamble) < 12:
        raise ValueError(f"checkpoint truncated: {len(preamble)} bytes, header needs 12")
    version, hlen = struct.unpack_from("<II", preamble, 4)
    if version == 1:
        raise ValueError("checkpoint version 1 holds the dense d_bin^3 trilinear weights "
                         "W_sib and W_gp, which are now factored at rank d_bin; "
                         "the model must be retrained")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(f.read(hlen).decode("utf-8"))
    except ValueError:
        raise ValueError("checkpoint header is no valid UTF-8 JSON") from None
    _check_header(header)
    types = {fd.name: fd.type for fd in fields(ModelConfig)}
    cfg = ModelConfig(**{k: _field_value("checkpoint config", types, k, v, _json_value)
                         for k, v in header["config"].items()})
    _check_tensor_shapes(header, cfg)
    size = os.fstat(f.fileno()).st_size
    expected = 12 + hlen + sum(8 * int(np.prod(shape)) for _, shape in header["tensors"])
    if size != expected:
        raise ValueError(
            f"checkpoint size mismatch: header implies {expected} bytes, file has {size}"
        )
    tensors = {}
    for name, shape in header["tensors"]:
        arr = np.empty(shape, dtype="<f8")
        got = f.readinto(arr)
        if got != arr.nbytes:
            raise ValueError(
                f"checkpoint truncated: tensor {name!r} has {got} of {arr.nbytes} bytes"
            )
        if not np.isfinite(arr).all():
            raise ValueError(
                f"checkpoint tensor {name!r} holds a value that is not a finite number"
            )
        tensors[name] = arr.astype(np.float64, copy=False)
    return ModelParams(cfg, header["word2id"], header["pos2id"], header["labels"], tensors)


def _parse_bool(value):
    if value.lower() not in ("true", "false"):
        raise ValueError
    return value.lower() == "true"


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}
_KINDS = {"int": "an integer", "float": "a number", "str": "a string", "bool": "true or false"}


def _json_value(kind, value):
    """A JSON value that already has the type named kind (a bool is no
    integer, an integer is a number)."""
    if type(value) not in _JSON_TYPES[kind]:
        raise ValueError
    return value


def _field_value(source, types, key, value, convert):
    """The one rule that types config from outside: ``convert(kind,
    value)``, kind the type of key's field in ``types``. Raises
    ValueError naming source and key on a key no field has, or a value
    the field's type cannot hold."""
    if key not in types:
        raise ValueError(f"{source}: unknown key {key!r}")
    try:
        return convert(types[key], value)
    except ValueError:
        raise ValueError(f"{source}: {key} must be {_KINDS[types[key]]}, not {value!r}") from None


def parse_config_file(path):
    """Line-based ``key = value`` file of ``TrainConfig`` fields and the
    ``MODEL_DIMS``; each value is parsed as its field's type (a bool is
    ``true`` or ``false`` in any case). Raises ValueError, naming the
    file, on an unknown key or a value its field's type cannot hold."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    types.update((f.name, f.type) for f in fields(ModelConfig) if f.name in MODEL_DIMS)
    out = {}
    with open_text(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = _field_value(path, types, key, value, lambda kind, v: _PARSERS[kind](v))
    return out

"""Unrolled mean-field inference over the second-order edge factors.

Two variants:

* ``mfvi_local``  -- one categorical head variable per word; posteriors
  are normalized over candidate heads (softmax per dependent).
* ``mfvi_single`` -- one Bernoulli variable per candidate edge; the
  update is an elementwise logistic.

Both run the same unrolled loop over the same message computation (see
``kernels``) and retain all T+1 posterior iterates so gradients flow
through the whole unrolled inference; the messages and the sibling
symmetrization s + s^T are one op each. The 2-D edge mask, and the Local
variant's additive mask, are built at most once per sentence. When no
score is a Var (parsing), every iterate is a plain array and no op
builds a closure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .scorer import VARIANTS, edge_mask, variant_row

_NEG = -1e30  # additive mask; exp underflows to exactly 0 after max-shift


def _mfvi_messages(q, sib, gp):
    """Differentiable message op backed by ``kernels``."""
    qv, sv, gv = ad.val(q), ad.val(sib), ad.val(gp)
    m = kernels.messages_forward(qv, sv, gv)
    parents = (q, sib, gp)
    if not ad.any_var(parents):
        return m
    return ad.custom_op(
        m, parents, lambda g: kernels.messages_backward(np.ascontiguousarray(g), qv, sv, gv)
    )


@dataclass
class Posterior:
    qs: list  # T+1 Vars (arrays when no score is a Var), each (n+1) x (n+1):
    # ad.val(qs[t])[i, j] = belief in edge i -> j

    @property
    def final(self):
        return self.qs[-1]

    def head_probs(self, t=-1):
        """n x (n+1) array: row j-1 holds the beliefs in each head of word j."""
        return ad.val(self.qs[t])[:, 1:].T.copy()


def _sym_sib(s_sib):
    """s + s^T over the last two axes, differentiable (the VJP is
    g + g^T likewise). Both orientations of a sibling pair are produced
    by the trilinear scorer and both couple the same pair of variables,
    so the effective coupling entering each message is their sum."""
    v = ad.val(s_sib)
    y = v + v.transpose(0, 2, 1)
    if not isinstance(s_sib, ad.Var):
        return y
    return ad.custom_op(y, (s_sib,), lambda g: (g + g.transpose(0, 2, 1),))


def _single_update(logits, mask):
    return ad.mul(ad.sigmoid(logits), mask)


def _unrolled(scores, T, update):
    """q_0 = update(s_edge); q_t = update(s_edge + messages(q_{t-1}))."""
    if T < 0:
        raise ValueError("T must be >= 0")
    mask = edge_mask(scores.n)
    q = update(scores.s_edge, mask)
    qs = [q]
    sib = _sym_sib(scores.s_sib) if T > 0 else None
    for _ in range(T):
        m = _mfvi_messages(q, sib, scores.s_gp)
        q = update(ad.add(scores.s_edge, m), mask)
        qs.append(q)
    return Posterior(qs)


def mfvi_local(scores, T=VARIANTS["local2o"].iterations):
    neg = (1.0 - edge_mask(scores.n)) * _NEG  # additive mask of the non-edges

    def local_update(logits, mask):
        return ad.mul(ad.softmax(ad.add(logits, neg), axis=0), mask)

    return _unrolled(scores, T, local_update)


def mfvi_single(scores, T=VARIANTS["single2o"].iterations):
    return _unrolled(scores, T, _single_update)


def mfvi(scores, variant, T=None):
    """Dispatch by variant name, a key of ``VARIANTS`` exactly, to its
    posterior family; T defaults to the variant's, and a first-order
    variant (default T = 0) always runs with T = 0."""
    row = variant_row(variant)
    T = row.iterations if T is None or row.iterations == 0 else T
    return {"local": mfvi_local, "single": mfvi_single}[row.posterior](scores, T)

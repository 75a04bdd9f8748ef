"""Unrolled mean-field inference over the second-order edge factors.

Two variants:

* ``mfvi_local``  -- one categorical head variable per word; posteriors
  are normalized over candidate heads (softmax per dependent).
* ``mfvi_single`` -- one Bernoulli variable per candidate edge; the
  update is an elementwise logistic.

Both run the same unrolled loop over the same message computation (see
``kernels``) and retain all T+1 posterior iterates so gradients flow
through the whole unrolled inference. The messages are one op over the
rank-r factors of the sibling and grandparent scores; they read both
orientations of each sibling pair, q[i,k]*(s_sib[i,j,k] + s_sib[i,k,j])
entering the message into edge (i, j). The kernel's correction matrices
are computed once per call, and only when T > 0. A score given as a
dense (n+1)^3 cube rather than as ``Factors`` enters through one exact
conversion, the identity factorization at r = (n+1)^2 (``_factor_block``),
and then runs through the same kernel. Each update alone masks the edges
that are no candidate: q is 0 there whatever (finite) ``s_edge`` holds,
and those cells of ``s_edge`` get a 0 adjoint. The 2-D edge mask, and the
Local variant's additive mask, are built at most once per call. Every op
returns through ``autodiff.custom_op``: when no score is a Var (parsing),
every iterate is a plain array and no graph node is built.

The score tensors may carry one leading batch axis: B sentences of one
length n stacked as (B, n+1, n+1) edge scores and (B, 3, n+1, r) factor
blocks (or (B, n+1, n+1, n+1) cubes) run as one call, the masks
broadcast over the batch, and every posterior row is bit-identical to
that sentence's own call. Parsing passes a batch's stack and training
one sentence's Vars as a stack of one; the synthetic scores of ``bench``
and the oracle's come with no leading axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .scorer import VARIANTS, Factors, edge_mask, variant_row

_NEG = -1e30  # additive mask; exp underflows to exactly 0 after max-shift


def _factor_block(s):
    """The (..., 3, n+1, r) factor block of a sibling or grandparent
    score: a ``Factors``' own, or for a dense (..., n+1, n+1, n+1) cube X
    its identity factorization at r = (n+1)^2, a[i, (i', j')] = [i = i'],
    b[j, (i', j')] = [j = j'] and c[k, (i, j)] = X[i, j, k], which gives
    back every cell of X exactly; differentiable in X."""
    if isinstance(s, Factors):
        return s.block
    x = ad.val(s)
    lead, n1 = x.shape[:-3], x.shape[-1]
    eye = np.eye(n1)
    block = np.empty((*lead, 3, n1, n1 * n1))
    block[..., 0, :, :] = np.repeat(eye, n1, axis=1)
    block[..., 1, :, :] = np.tile(eye, n1)
    block[..., 2, :, :] = np.swapaxes(x.reshape(*lead, n1 * n1, n1), -1, -2)

    def vjp(g):
        dx = np.empty(x.shape)
        dx.reshape(*lead, n1 * n1, n1)[...] = np.swapaxes(g[..., 2, :, :], -1, -2)
        return (dx,)

    return ad.custom_op(block, (s,), vjp)


def _mfvi_messages(q, sib, gp, ops):
    """Differentiable message op backed by ``kernels``: sib and gp are
    the factor blocks, ops their ``kernels.couplings``. The VJP reads the
    products of q that the forward call returned beside the messages."""
    qv = ad.val(q)
    m, saved = kernels.messages_forward(qv, *ops)
    return ad.custom_op(m, (q, sib, gp), lambda g: kernels.messages_backward(
        np.ascontiguousarray(g), qv, *ops, saved))


@dataclass
class Posterior:
    qs: list  # T+1 Vars (arrays when no score is a Var), each (..., n+1, n+1):
    # ad.val(qs[t])[..., i, j] = belief in edge i -> j

    @property
    def final(self):
        return self.qs[-1]

    def head_probs(self):
        """(..., n, n+1) array: row j-1 holds the final beliefs in each
        head of j."""
        return np.swapaxes(ad.val(self.final)[..., 1:], -1, -2).copy()


def _single_update(logits, mask):
    return ad.mul(ad.sigmoid(logits), mask)


def _unrolled(scores, T, update):
    """q_0 = update(s_edge); q_t = update(s_edge + messages(q_{t-1}))."""
    if T < 0:
        raise ValueError("T must be >= 0")
    mask = edge_mask(scores.n)
    q = update(scores.s_edge, mask)
    qs = [q]
    if T:
        sib, gp = _factor_block(scores.s_sib), _factor_block(scores.s_gp)
        ops = kernels.couplings(ad.val(sib), ad.val(gp))
    for _ in range(T):
        m = _mfvi_messages(q, sib, gp, ops)
        q = update(ad.add(scores.s_edge, m), mask)
        qs.append(q)
    return Posterior(qs)


def mfvi_local(scores, T=VARIANTS["local2o"].iterations):
    neg = (1.0 - edge_mask(scores.n)) * _NEG  # additive mask of the non-edges

    def local_update(logits, mask):
        return ad.mul(ad.softmax(ad.add(logits, neg), axis=-2), mask)

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

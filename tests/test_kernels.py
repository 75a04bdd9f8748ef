import numpy as np
import pytest

from conftest import cube_of
from mfdep import kernels
from mfdep.scorer import edge_mask, sib_mask


def _inputs(n, seed=0, r=4):
    """A masked q and random (3, n+1, r) sibling and grandparent factor
    blocks, scaled so that a cell scores about N(0, 0.25^2)."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, (n + 1, n + 1)) * edge_mask(n)
    std = (0.0625 / r) ** (1 / 6)
    sib = rng.normal(0.0, std, (3, n + 1, r))
    gp = rng.normal(0.0, std, (3, n + 1, r))
    return q, sib, gp


def _forward(q, sib, gp):
    return kernels.messages_forward(q, *kernels.couplings(sib, gp))[0]


def _backward(dm, q, sib, gp):
    """The adjoints from the products of q that the forward call returns."""
    ops = kernels.couplings(sib, gp)
    _, saved = kernels.messages_forward(q, *ops)
    return kernels.messages_backward(dm, q, *ops, saved)


def _reference_messages(q, sib, gp):
    """Direct loop transcription of the message definition on cubes."""
    n1 = q.shape[0]
    m = np.zeros_like(q)
    for i in range(n1):
        for j in range(1, n1):
            if i == j:
                continue
            acc = 0.0
            for k in range(n1):
                if k == i or k == j:
                    continue
                acc += q[i, k] * (sib[i, j, k] + sib[i, k, j])
                acc += q[j, k] * gp[i, j, k]
                acc += q[k, i] * gp[k, i, j]
            m[i, j] = acc
    return m


def _assert_close_on_candidates(got, want, n, rtol):
    # relative to the largest entry; at n = 1 (no pair, no chain) the
    # reference is exactly 0 and the factor sums leave cancellation noise
    cand = np.broadcast_to(edge_mask(n) == 1, want.shape)
    scale = max(np.abs(want[cand]).max(initial=0.0), 1e-3)
    np.testing.assert_allclose(got[cand], want[cand], rtol=rtol, atol=rtol * scale)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_forward_matches_reference_loops(n):
    # the factor messages equal the loops over the cubes the factors
    # score, invalid cells 0, on every candidate edge
    q, sib, gp = _inputs(n, seed=n)
    _assert_close_on_candidates(
        _forward(q, sib, gp), _reference_messages(q, cube_of(sib), cube_of(gp)), n, 1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_backward_matches_finite_differences(n):
    # the adjoints of q and of both factor blocks, the correction
    # matrices' share included
    q, sib, gp = _inputs(n, seed=20 + n, r=3)
    rng = np.random.default_rng(99)
    dm = rng.normal(size=q.shape)

    dq, dsib, dgp = _backward(dm, q, sib, gp)

    def scalar(qv, sv, gv):
        return float((_forward(qv, sv, gv) * dm).sum())

    eps = 1e-6
    for arr, grad in ((q, dq), (sib, dsib), (gp, dgp)):
        assert grad.shape == arr.shape
        flat = arr.ravel()
        idxs = rng.choice(flat.size, size=min(25, flat.size), replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + eps
            up = scalar(q, sib, gp)
            flat[idx] = orig - eps
            dn = scalar(q, sib, gp)
            flat[idx] = orig
            np.testing.assert_allclose(
                grad.ravel()[idx], (up - dn) / (2 * eps), atol=1e-6
            )


def test_zero_couplings_give_zero_messages():
    q, _, _ = _inputs(4)
    z = np.zeros((3, 5, 4))
    assert not _forward(q, z, z).any()


@pytest.mark.parametrize("n", [5, 10, 20, 40])
def test_muladd_count_matches_closed_form(n):
    assert kernels.count_muladds(n) == kernels.closed_form_muladds(n)


def test_closed_form_is_cubic():
    assert kernels.closed_form_muladds(10) == 3 * 100 * 9


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_a_stack_matches_each_sentence_alone_bit_for_bit(n):
    # a leading batch axis changes no bit of any sentence's messages or
    # adjoints
    alone = [_inputs(n, seed=40 + b) for b in range(4)]
    q, sib, gp = (np.stack(x) for x in zip(*alone))
    dm = np.random.default_rng(7).normal(size=q.shape)
    m = _forward(q, sib, gp)
    grads = _backward(dm, q, sib, gp)
    assert m.shape == q.shape and [g.shape for g in grads] == [q.shape, sib.shape, gp.shape]
    for b, (qb, sb, gb) in enumerate(alone):
        assert m[b].tobytes() == _forward(qb, sb, gb).tobytes()
        for stacked, own in zip(grads, _backward(dm[b], qb, sb, gb)):
            assert stacked[b].tobytes() == own.tobytes()


def _symmetrized_kernel(dm, q, sib, gp):
    """Messages and adjoints of the dense cube kernel, run on the sibling
    cube symmetrized beforehand, s + s^T: the reference for the factor
    kernel, whose adjoints are in cube space here."""
    sym = sib + np.swapaxes(sib, -1, -2)
    m = (np.einsum("...ik,...ijk->...ij", q, sym) + np.einsum("...jk,...ijk->...ij", q, gp)
         + np.einsum("...ki,...kij->...ij", q, gp))
    dq = (np.einsum("...ij,...ijk->...ik", dm, sym) + np.einsum("...ij,...ijk->...jk", dm, gp)
          + np.einsum("...ij,...kij->...ki", dm, gp))
    dsym = dm[..., :, :, None] * q[..., :, None, :]
    dgp = dm[..., :, :, None] * q[..., None, :, :] + q[..., :, :, None] * dm[..., None, :, :]
    return m, dq, dsym + np.swapaxes(dsym, -1, -2), dgp


def _block_adjoint(block, dcube):
    """The adjoint of a factor block for the adjoint dcube of its masked
    cube: what the cube path's chain rule gives."""
    a, b, c = np.moveaxis(block, -3, 0)
    g = dcube * sib_mask(block.shape[-2] - 1)
    return np.stack((np.einsum("...ijk,...jr,...kr->...ir", g, b, c),
                     np.einsum("...ijk,...ir,...kr->...jr", g, a, c),
                     np.einsum("...ijk,...ir,...jr->...kr", g, a, b)), axis=-3)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("stack", [False, True])
def test_kernel_on_the_cube_matches_the_kernel_on_its_symmetrization(n, stack):
    # the factor kernel gives the messages of the cube kernel on s + s^T,
    # and, for an adjoint on the candidate edges, its dq there and, through
    # the cube's chain rule, its factor adjoints, up to rounding
    alone = [_inputs(n, seed=60 + b, r=5) for b in range(4 if stack else 1)]
    q, sib, gp = (np.stack(x) for x in zip(*alone)) if stack else alone[0]
    dm = np.random.default_rng(n).normal(size=q.shape) * edge_mask(n)
    m, dq, dsym, dgp = _symmetrized_kernel(dm, q, cube_of(sib), cube_of(gp))
    got_dq, got_dsib, got_dgp = _backward(dm, q, sib, gp)
    _assert_close_on_candidates(_forward(q, sib, gp), m, n, 1e-12)
    _assert_close_on_candidates(got_dq, dq, n, 1e-12)
    for got, block, dcube in ((got_dsib, sib, dsym), (got_dgp, gp, dgp)):
        want = _block_adjoint(block, dcube)
        scale = max(np.abs(want).max(), 1e-3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

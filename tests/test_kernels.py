import numpy as np
import pytest

from conftest import random_scores
from mfdep import kernels
from mfdep.scorer import edge_mask, sib_mask


def _inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, (n + 1, n + 1)) * edge_mask(n)
    sib = rng.normal(0.0, 0.25, (n + 1,) * 3) * sib_mask(n)
    gp = rng.normal(0.0, 0.25, (n + 1,) * 3) * sib_mask(n)
    return q, sib, gp


def _reference_messages(q, sib, gp):
    """Direct loop transcription of the message definition."""
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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_forward_matches_reference_loops(n):
    q, sib, gp = _inputs(n, seed=n)
    np.testing.assert_allclose(
        kernels.messages_forward(q, sib, gp), _reference_messages(q, sib, gp),
        atol=1e-12,
    )


@pytest.mark.parametrize("n", [2, 3, 5])
def test_backward_matches_finite_differences(n):
    q, sib, gp = _inputs(n, seed=20 + n)
    rng = np.random.default_rng(99)
    dm = rng.normal(size=q.shape)

    dq, dsib, dgp = kernels.messages_backward(np.ascontiguousarray(dm), q, sib, gp)

    def scalar(qv, sv, gv):
        return float((kernels.messages_forward(qv, sv, gv) * dm).sum())

    eps = 1e-6
    for arr, grad in ((q, dq), (sib, dsib), (gp, dgp)):
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
    z = np.zeros((5, 5, 5))
    assert not kernels.messages_forward(q, z, z).any()


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
    m = kernels.messages_forward(q, sib, gp)
    grads = kernels.messages_backward(dm, q, sib, gp)
    assert m.shape == q.shape and [g.shape for g in grads] == [q.shape, sib.shape, gp.shape]
    for b, (qb, sb, gb) in enumerate(alone):
        assert m[b].tobytes() == kernels.messages_forward(qb, sb, gb).tobytes()
        for stacked, own in zip(grads, kernels.messages_backward(dm[b], qb, sb, gb)):
            assert stacked[b].tobytes() == own.tobytes()


def _symmetrized_kernel(dm, q, sib, gp):
    """Messages and adjoints of the kernel as it ran on the sibling cube
    symmetrized beforehand, s + s^T, its VJP composed with that of the sum."""
    sym = sib + np.swapaxes(sib, -1, -2)
    m = (np.einsum("...ik,...ijk->...ij", q, sym) + np.einsum("...jk,...ijk->...ij", q, gp)
         + np.einsum("...ki,...kij->...ij", q, gp))
    dq = (np.einsum("...ij,...ijk->...ik", dm, sym) + np.einsum("...ij,...ijk->...jk", dm, gp)
          + np.einsum("...ij,...kij->...ki", dm, gp))
    dsym = dm[..., :, :, None] * q[..., :, None, :]
    dgp = dm[..., :, :, None] * q[..., None, :, :] + q[..., :, :, None] * dm[..., None, :, :]
    return m, dq, dsym + np.swapaxes(dsym, -1, -2), dgp


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("stack", [False, True])
def test_kernel_on_the_cube_matches_the_kernel_on_its_symmetrization(n, stack):
    # reading both sibling orientations from s gives the messages and
    # adjoints of the kernel on s + s^T, up to rounding
    alone = [_inputs(n, seed=60 + b) for b in range(4 if stack else 1)]
    q, sib, gp = (np.stack(x) for x in zip(*alone)) if stack else alone[0]
    dm = np.random.default_rng(n).normal(size=q.shape)
    got = [kernels.messages_forward(q, sib, gp), *kernels.messages_backward(dm, q, sib, gp)]
    for g, w in zip(got, _symmetrized_kernel(dm, q, sib, gp)):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-14 * np.abs(w).max())

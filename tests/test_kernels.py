import numpy as np
import pytest

from conftest import random_scores
from mfdep import kernels
from mfdep.scorer import edge_mask, gp_mask, sib_mask


def _inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, 1.0, (n + 1, n + 1)) * edge_mask(n)
    sib = rng.normal(0.0, 0.25, (n + 1,) * 3) * sib_mask(n)
    gp = rng.normal(0.0, 0.25, (n + 1,) * 3) * gp_mask(n)
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
                acc += q[i, k] * sib[i, j, k]
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


@pytest.mark.parametrize("n", [2, 4, 6])
def test_numpy_and_numba_paths_agree(n):
    if not kernels._HAVE_NUMBA:
        pytest.skip("numba backend disabled")
    q, sib, gp = _inputs(n, seed=10 + n)
    a = kernels.messages_forward_numpy(q, sib, gp)
    b = kernels.messages_forward_numba(q, sib, gp)
    np.testing.assert_allclose(a, b, atol=1e-12)


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


def test_backend_name_reports_active_backend():
    name = kernels.backend_name()
    assert name in ("numba", "numpy")
    saved = kernels._HAVE_NUMBA
    try:
        kernels._HAVE_NUMBA = False
        assert kernels.backend_name() == "numpy"
    finally:
        kernels._HAVE_NUMBA = saved


@pytest.mark.parametrize("n", [5, 10, 20, 40])
def test_muladd_count_matches_closed_form(n):
    assert kernels.count_muladds(n) == kernels.closed_form_muladds(n)


def test_closed_form_is_cubic():
    assert kernels.closed_form_muladds(10) == 3 * 100 * 9


def test_mask_cache_is_bounded():
    kernels._masks.cache_clear()
    for n in range(1, 41):
        q, sib, gp = _inputs(n, seed=n)
        kernels.messages_forward_numpy(q, sib, gp)
        assert kernels._masks.cache_info().currsize <= kernels._MASK_CACHE_SIZE
    np.testing.assert_allclose(  # an evicted size is rebuilt correctly
        kernels.messages_forward_numpy(*_inputs(3, seed=3)),
        _reference_messages(*_inputs(3, seed=3)),
        atol=1e-12,
    )

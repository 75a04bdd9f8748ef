import weakref

import numpy as np
import pytest

import mfdep.autodiff as ad
from mfdep import decoder, kernels, scorer
from mfdep.oracle import finite_diff_gradient


def _no_graph(*args, **kwargs):
    raise AssertionError("a graph node built from plain operands")


def _leaf(value):
    return ad.Var(np.asarray(value, dtype=np.float64))


def _check_grad(build, shapes, seed=0, tol=1e-6):
    """Compare backward gradients of a scalar graph against central differences."""
    rng = np.random.default_rng(seed)
    arrays = {k: rng.normal(size=s) for k, s in shapes.items()}

    def run():
        leaves = {k: _leaf(v) for k, v in arrays.items()}
        return build(leaves), leaves

    out, leaves = run()
    ad.backward(out)

    def f(params):
        o, _ = run()
        return float(o.value)

    fd = finite_diff_gradient(lambda p: f(p), arrays, eps=1e-6)
    for k in shapes:
        got = leaves[k].grad
        assert got is not None, k
        np.testing.assert_allclose(got, fd[k], rtol=tol, atol=tol)


def test_add_mul_broadcast():
    _check_grad(
        lambda v: ad.sum_all(ad.mul(ad.add(v["a"], v["b"]), v["a"])),
        {"a": (3, 4), "b": (4,)},
    )


def test_elementwise_nonlinearities():
    _check_grad(
        lambda v: ad.sum_all(ad.log(ad.sigmoid(v["a"]))),
        {"a": (4,)},
    )


def test_logistic_equals_the_two_branch_formula():
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [rng.normal(0.0, s, 2000) for s in (1e-300, 1e-8, 1.0, 40.0, 800.0)]
        + [np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf])]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        expect = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = ad.logistic(x)
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(ad.sigmoid(ad.Var(x)).value, expect)


def test_log_and_clip_min():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 2.0, size=5)
    x = _leaf(a)
    out = ad.sum_all(ad.log(ad.clip_min(x, 1.0)))
    ad.backward(out)
    expect = np.where(a > 1.0, 1.0 / a, 0.0)
    np.testing.assert_allclose(x.grad, expect, atol=1e-12)


def test_softmax_rows_sum_to_one_and_grad():
    x = _leaf(np.random.default_rng(2).normal(size=(3, 5)))
    y = ad.softmax(x, axis=1)
    np.testing.assert_allclose(y.value.sum(axis=1), 1.0, atol=1e-12)
    _check_grad(
        lambda v: ad.sum_all(ad.mul(ad.softmax(v["a"], axis=1), v["b"])),
        {"a": (3, 5), "b": (3, 5)},
    )


def test_softmax_shift_invariance():
    x = np.random.default_rng(3).normal(size=(4, 4))
    a = ad.softmax(ad.Var(x), axis=0).value
    b = ad.softmax(ad.Var(x + 100.0), axis=0).value
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_gather_and_take_accumulate_repeats():
    x = _leaf(np.arange(12, dtype=float).reshape(3, 4))
    g = ad.take_at(x, (np.array([0, 0, 2]),))
    out = ad.sum_all(g)
    ad.backward(out)
    expect = np.zeros((3, 4))
    expect[0] = 2.0
    expect[2] = 1.0
    np.testing.assert_allclose(x.grad, expect)

    y = _leaf(np.arange(9, dtype=float).reshape(3, 3))
    t = ad.take_at(y, (np.array([1, 1]), np.array([2, 2])))
    ad.backward(ad.sum_all(t))
    assert y.grad[1, 2] == 2.0 and y.grad.sum() == 2.0


def test_concat_grad():
    _check_grad(
        lambda v: ad.sum_all(
            ad.mul(ad.concat([v["a"], v["b"]], axis=1), v["c"])
        ),
        {"a": (2, 3), "b": (2, 2), "c": (2, 5)},
    )


def test_shared_subexpression_grad_counted_once_per_path():
    # y = x * x: dy/dx = 2x even though x appears twice
    x = _leaf(np.array([3.0]))
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_linear_function_gradient_is_exact():
    w = np.random.default_rng(4).normal(size=(5,))
    x = _leaf(np.ones(5))
    ad.backward(ad.sum_all(ad.mul(x, w)))
    np.testing.assert_allclose(x.grad, w, atol=1e-15)


def test_custom_op_vjp_routing():
    x = _leaf(np.array([2.0, 5.0]))
    y = ad.custom_op(x.value * 3.0, (x,), lambda g: (g * 3.0,))
    ad.backward(ad.sum_all(y))
    np.testing.assert_allclose(x.grad, [3.0, 3.0])


def test_ops_without_var_operands_return_plain_arrays(monkeypatch):
    # every differentiable op returns through custom_op: plain operands,
    # 0-d ones included, give a plain float64 array and no graph node
    monkeypatch.setattr(ad.Var, "__init__", _no_graph)
    a = np.array([1.0, -2.0])
    m = np.arange(6.0).reshape(2, 3)
    block = decoder._factor_block(np.random.default_rng(0).normal(size=(3, 3, 3)))
    outs = (
        ad.add(a, 1.0),
        ad.sub(a, 1.0),
        ad.mul(np.array(2.0), np.array(3.0)),
        ad.log(np.abs(a)),
        ad.sigmoid(a),
        ad.clip_min(a, 0.0),
        ad.softmax(a, axis=0),
        ad.sum_all(a),
        ad.take_at(m, ([1, 0], [2, 2])),
        ad.concat([a, a]),
        ad.custom_op(a * 3.0, (a,), lambda g: (g * 3.0,)),
        scorer.linear(m, m, a),
        scorer.biaffine(m, m, np.eye(3)),
        scorer.trilinear_factors(m, m, np.ones((3, 3, 2))).block,
        block,
        decoder._mfvi_messages(0.5 * scorer.edge_mask(2), block, block,
                               kernels.couplings(block, block)),
    )
    for out in outs:
        assert type(out) is np.ndarray and out.dtype == np.float64
    monkeypatch.undo()
    assert isinstance(ad.mul(a, ad.Var(a)), ad.Var)


def test_backward_requires_scalar_seed_or_matching_grad():
    x = _leaf(np.eye(2))
    y = ad.mul(x, 2.0)
    ad.backward(y, seed_grad=np.ones((2, 2)))
    np.testing.assert_allclose(x.grad, 2.0 * np.ones((2, 2)))


def _assert_no_shared_grads(*vars_):
    grads = [v.grad for v in vars_]
    for i, a in enumerate(grads):
        assert a is not None
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_add_of_a_var_with_itself_gets_its_own_grad():
    # both VJPs of add(x, x) return views of y's grad: x must copy, not
    # alias y's grad and then add the second view into it
    x = _leaf([1.0, -2.0, 3.0])
    w = np.array([0.5, 2.0, -1.0])
    y = ad.add(x, x)
    z = ad.mul(y, w)
    out = ad.sum_all(z)
    ad.backward(out)
    np.testing.assert_array_equal(x.grad, 2.0 * w)
    np.testing.assert_array_equal(y.grad, w)
    _assert_no_shared_grads(x, y, z, out)


def test_concat_grads_are_not_views():
    a, b = _leaf(np.ones((2, 3))), _leaf(np.ones((2, 2)))
    w = np.arange(10.0).reshape(2, 5)
    cat = ad.concat([a, b], axis=1)
    term = ad.mul(cat, w)
    out = ad.sum_all(term)
    ad.backward(out)
    np.testing.assert_array_equal(a.grad, w[:, :3])
    np.testing.assert_array_equal(b.grad, w[:, 3:])
    _assert_no_shared_grads(a, b, cat, term, out)


def test_elementwise_product_grads_are_adopted(backward_copies):
    # mul's VJP results, summed down to nothing, are fresh arrays: backward
    # copies the seed and nothing else
    x, w = _leaf([1.0, -2.0, 3.0]), _leaf([0.5, 2.0, -1.0])
    ad.backward(ad.sum_all(ad.mul(x, w)))
    assert len(backward_copies) == 1
    np.testing.assert_array_equal(x.grad, w.value)
    np.testing.assert_array_equal(w.grad, x.value)


def test_custom_op_returning_its_adjoint_is_copied():
    x = _leaf([2.0, 5.0])
    w = np.array([3.0, -1.0])
    y = ad.custom_op(x.value.copy(), (x,), lambda g: (g,))
    z = ad.mul(y, w)
    ad.backward(ad.sum_all(z))
    np.testing.assert_array_equal(x.grad, w)
    _assert_no_shared_grads(x, y, z)


def test_one_array_returned_to_two_parents_is_adopted_once():
    x1, x2 = _leaf([1.0, 2.0]), _leaf([3.0, 4.0])

    def vjp(g):
        r = g * 2.0
        return r, r

    y = ad.custom_op(x1.value + x2.value, (x1, x2), vjp)
    ad.backward(ad.sum_all(ad.mul(y, np.array([1.0, -1.0]))))
    np.testing.assert_array_equal(x1.grad, [2.0, -2.0])
    np.testing.assert_array_equal(x2.grad, [2.0, -2.0])
    _assert_no_shared_grads(x1, x2, y)


def test_fresh_vjp_result_is_adopted_and_the_seed_is_not():
    x = _leaf([1.0, 2.0])
    returned = []

    def vjp(g):
        returned.append(g * 3.0)
        return (returned[-1],)

    y = ad.custom_op(x.value * 3.0, (x,), vjp)
    seed = np.array([1.0, -1.0])
    ad.backward(y, seed)
    assert y.grad is not seed and not np.shares_memory(y.grad, seed)
    assert x.grad is returned[0]  # owned and reachable from no other Var
    np.testing.assert_array_equal(x.grad, [3.0, -3.0])
    np.testing.assert_array_equal(seed, [1.0, -1.0])


def test_backward_frees_what_a_vjp_captured_while_the_root_is_held():
    x, w = _leaf([1.0, -2.0]), np.array([0.5, 2.0])
    captured = weakref.ref(w)  # mul's VJP keeps w to give x's adjoint
    out = ad.sum_all(ad.mul(x, w))
    del w
    assert captured() is not None
    ad.backward(out)
    assert captured() is None
    np.testing.assert_array_equal(x.grad, [0.5, 2.0])
    np.testing.assert_array_equal(out.grad, 1.0)


def test_a_graph_is_walked_once():
    # a second walk, from the root or from a new node on a walked one,
    # fails instead of giving partial gradients
    x = _leaf([1.0, -2.0])
    y = ad.mul(x, np.array([0.5, 2.0]))
    out = ad.sum_all(y)
    ad.backward(out)
    with pytest.raises(ValueError, match="walked once"):
        ad.backward(out)
    with pytest.raises(ValueError, match="walked once"):
        ad.backward(ad.sum_all(y))
    np.testing.assert_array_equal(x.grad, [0.5, 2.0])


def test_vjp_returning_too_few_adjoints_raises():
    # one adjoint per parent, in parent order: a missing one is an error,
    # not a parent silently left without a gradient
    x1, x2 = _leaf([1.0, 2.0]), _leaf([3.0, 4.0])
    y = ad.custom_op(x1.value + x2.value, (x1, x2), lambda g: (g.copy(),))
    with pytest.raises(ValueError):
        ad.backward(ad.sum_all(y))

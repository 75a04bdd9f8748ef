import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import mfdep.autodiff as ad
from conftest import TOY_TREEBANK, random_scores
from mfdep.conllu import ConlluError, parse_conllu, read_conllu_file
from mfdep.decoder import mfvi, mfvi_local, mfvi_single
from mfdep.oracle import finite_diff_gradient
from mfdep.scorer import (ModelConfig, build_vocabs, edge_mask, encode, init_params, row_layers,
                          score_labels, score_sentence)
import mfdep.trainer as trainer
from mfdep.trainer import (
    _ADAM_BLOCK,
    AdamState,
    TrainConfig,
    adam_step,
    batch_gradients,
    edge_loss_local,
    edge_loss_single,
    evaluate,
    label_loss,
    load_model,
    make_batches,
    parse_config_file,
    save_model,
    sentence_loss,
    total_loss,
    train,
)
from mfdep.tree import decode
from test_scorer import make_params, make_sentence


def test_config_defaults_per_variant():
    assert TrainConfig(variant="local2o").lam == 0.40
    assert TrainConfig(variant="single2o").lam == 0.07
    assert TrainConfig(variant="local1o").iterations == 0
    assert TrainConfig(variant="single1o", iterations=3).iterations == 0
    with pytest.raises(ValueError):
        TrainConfig(lam=1.5)
    with pytest.raises(ValueError):
        TrainConfig(decay_step=0)
    for scale in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError, match="scale"):
            TrainConfig(scale=scale)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-4)


def test_config_scale_shrinks_schedule():
    cfg = TrainConfig(scale=10.0)
    assert cfg.scaled("max_iterations") == 7500
    assert cfg.scaled("decay_step") == 50
    assert cfg.scaled("amsgrad_after") == 500
    assert TrainConfig(scale=1e9).scaled("decay_step") == 1


def test_edge_loss_local_perfect_and_analytic():
    q = np.zeros((3, 3))
    q[2, 1] = 1.0
    q[1, 2] = 1.0
    assert float(edge_loss_local(ad.Var(q[None]), [2, 1]).value) == 0.0
    q1 = np.zeros((2, 2))
    q1[0, 1] = 0.5
    np.testing.assert_allclose(
        float(edge_loss_local(ad.Var(q1[None]), [0]).value), math.log(2), atol=1e-12
    )


def test_edge_loss_local_matches_recomputation(rng):
    scores = random_scores(3, rng)
    q = mfvi_local(scores, T=2).final
    gold = [0, 1, 1]
    got = float(ad.val(edge_loss_local(q[None], gold)))
    expect = -sum(math.log(ad.val(q)[h, j]) for j, h in enumerate(gold, start=1))
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_edge_loss_single_perfect_and_analytic():
    n = 2
    q = np.zeros((3, 3))
    q[2, 1] = 1.0
    q[1, 2] = 1.0
    # remaining candidates have probability 0: exactly correct
    assert float(edge_loss_single(ad.Var(q[None]), [2, 1]).value) == 0.0
    q1 = np.zeros((2, 2))
    q1[0, 1] = 0.5
    np.testing.assert_allclose(
        float(edge_loss_single(ad.Var(q1[None]), [0]).value), math.log(2), atol=1e-12
    )


def test_edge_loss_single_matches_recomputation(rng):
    n = 3
    scores = random_scores(n, rng)
    q = mfvi_single(scores, T=2).final
    gold = [2, 0, 2]
    qv = ad.val(q)
    expect = 0.0
    for j in range(1, n + 1):
        for i in range(n + 1):
            if i == j:
                continue
            expect -= math.log(qv[i, j] if i == gold[j - 1] else 1.0 - qv[i, j])
    np.testing.assert_allclose(
        float(ad.val(edge_loss_single(q[None], gold))), expect, atol=1e-10
    )


def test_label_loss_examples(rng):
    # p[0, j-1, l]: the probability of label l on word j's gold-head edge
    p = np.zeros((2, 2))
    p[0, 0] = 1.0
    p[1, 1] = 1.0
    assert float(label_loss(ad.Var(p[None]), [0, 1]).value) == 0.0
    p1 = np.full((1, 2), 0.5)
    np.testing.assert_allclose(
        float(label_loss(ad.Var(p1[None]), [1]).value), math.log(2), atol=1e-12
    )
    pr = rng.uniform(0.1, 0.9, size=(2, 3))
    gold_l = [1, 2]
    got = float(label_loss(ad.Var(pr[None]), gold_l).value)
    expect = -sum(math.log(pr[j, l]) for j, l in enumerate(gold_l))
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_total_loss_interpolation():
    e, l = ad.Var(np.float64(2.0)), ad.Var(np.float64(1.0))
    assert float(total_loss(e, l, 0.0).value) == 2.0
    np.testing.assert_allclose(float(total_loss(e, l, 0.40).value), 1.6, atol=1e-15)
    e2, l2 = ad.Var(np.float64(0.0)), ad.Var(np.float64(10.0))
    np.testing.assert_allclose(float(total_loss(e2, l2, 0.07).value), 0.7, atol=1e-15)
    with pytest.raises(ValueError):
        total_loss(e, l, -0.1)


def test_degenerate_posterior_gives_large_finite_loss():
    q = np.zeros((2, 2))  # Q(gold) = 0 exactly
    loss = float(edge_loss_local(ad.Var(q[None]), [0]).value)
    assert np.isfinite(loss) and loss == pytest.approx(30.0)


def test_lambda_endpoints_zero_out_one_path():
    params = make_params(seed=4)
    sent = make_sentence(3)
    for lam, zeroed in ((0.0, "U_label"), (1.0, "U_edge")):
        loss, tape, pv = sentence_loss(sent, params, "local2o", 2, lam)
        tape.backward(loss)
        assert not pv[zeroed].grad.any()
        other = "U_edge" if zeroed == "U_label" else "U_label"
        assert pv[other].grad.any()


@pytest.mark.parametrize("variant", ["local2o", "single2o"])
def test_dropout_loss_gradients_match_finite_differences(variant):
    # every dropout site active; re-seeding the mask generator for each
    # evaluation keeps the masks fixed, so the loss is smooth in the params
    params = make_params(seed=8)
    for name in ("p_drop_embed", "p_drop_edge", "p_drop_label", "p_drop_bin"):
        setattr(params.config, name, 0.3)
    sent = make_sentence(4)

    def loss(rng_seed=17):
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        out, _, pv = sentence_loss(sent, params, variant, 2, 0.4, dropout_rng=rng)
        return out, pv

    out, pv = loss()
    assert out.value != loss(None)[0].value  # the masks drop something
    ad.backward(out)
    fd = finite_diff_gradient(lambda p: float(loss()[0].value), params.tensors, eps=1e-6)
    for name, var in pv.items():
        denom = np.maximum(1.0, np.maximum(np.abs(var.grad), np.abs(fd[name])))
        assert np.max(np.abs(var.grad - fd[name]) / denom) <= 1e-7, name


def _bowl_config():
    return TrainConfig(variant="local2o")


def test_adam_zero_gradient_no_op():
    params = SimpleNamespace(tensors={"t": np.array([1.0, -2.0])})
    state = AdamState(params.tensors)
    assert adam_step(params, {"t": np.zeros(2)}, state, _bowl_config())
    np.testing.assert_array_equal(params.tensors["t"], [1.0, -2.0])
    assert state.m is None  # beta1 = 0: the first moment is the gradient
    assert not state.v["t"].any()


def test_adam_single_step_magnitude():
    params = SimpleNamespace(tensors={"t": np.zeros(1)})
    state = AdamState(params.tensors)
    adam_step(params, {"t": np.ones(1)}, state, _bowl_config())
    np.testing.assert_allclose(params.tensors["t"], [-0.01], atol=1e-6)


def test_adam_quadratic_bowl_converges():
    params = SimpleNamespace(tensors={"t": np.array([0.2])})
    state = AdamState(params.tensors)
    cfg = _bowl_config()
    start = params.tensors["t"][0] ** 2
    prev = start
    for _ in range(50):
        g = {"t": 2.0 * params.tensors["t"]}
        adam_step(params, g, state, cfg)
        cur = params.tensors["t"][0] ** 2
        assert cur < prev
        prev = cur
    assert prev < 1e-3 * start


def test_adam_skips_nonfinite_gradients():
    params = SimpleNamespace(tensors={"t": np.array([1.0])})
    state = AdamState(params.tensors)
    assert not adam_step(params, {"t": np.array([np.nan])}, state, _bowl_config())
    np.testing.assert_array_equal(params.tensors["t"], [1.0])
    assert state.skipped == 1


def test_amsgrad_uses_running_max_second_moment():
    params = SimpleNamespace(tensors={"t": np.zeros(1)})
    state = AdamState(params.tensors)
    cfg = _bowl_config()
    adam_step(params, {"t": np.array([10.0])}, state, cfg)
    state.amsgrad = True
    before = params.tensors["t"].copy()
    adam_step(params, {"t": np.array([1e-6])}, state, cfg)
    # running max keeps the denominator large: step is tiny
    assert abs(params.tensors["t"][0] - before[0]) < 1e-6


def _reference_adam_step(p, m, v, vmax, g, t, cfg, amsgrad):
    """The whole-array update, one temporary per operation."""
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    if amsgrad:
        np.maximum(vmax, v, out=vmax)
        vhat = vmax / bc2
    else:
        vhat = v / bc2
    p -= lr * (m / bc1) / (np.sqrt(vhat) + eps)


_BLOCK_SHAPES = {
    "one": (1,),
    "below": (_ADAM_BLOCK - 1,),
    "block": (_ADAM_BLOCK,),
    "above": (_ADAM_BLOCK + 1,),
    "cube": (3, 130, 170),  # two full blocks and a partial one
}


def _block_problem(seed):
    rng = np.random.default_rng(seed)
    tensors = {k: rng.normal(0.0, 1.0, shape) for k, shape in _BLOCK_SHAPES.items()}
    return SimpleNamespace(tensors=tensors), rng


def _block_grads(rng, step):
    # shrinking gradients, so AMSGrad's running max differs from v
    grads = {k: rng.normal(0.0, 4.0 / step, shape) for k, shape in _BLOCK_SHAPES.items()}
    grads["cube"] = np.asfortranarray(grads["cube"])
    return grads


@pytest.mark.parametrize("beta1", [0.0, 0.9])
def test_adam_blocks_match_whole_array_formula_bit_for_bit(beta1):
    cfg = TrainConfig(variant="local2o", adam_beta1=beta1)
    params, rng = _block_problem(seed=1)
    ref = {k: p.copy() for k, p in params.tensors.items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_vmax = {k: np.zeros_like(p) for k, p in ref.items()}
    state = AdamState(params.tensors)
    for step in range(1, 5):
        amsgrad = step > 2
        state.amsgrad = amsgrad
        if step == 3:
            assert state.vmax is None
        grads = _block_grads(rng, step)
        assert adam_step(params, grads, state, cfg)
        for k, g in grads.items():
            _reference_adam_step(ref[k], ref_m[k], ref_v[k], ref_vmax[k], g, step, cfg, amsgrad)
            np.testing.assert_array_equal(params.tensors[k], ref[k])
            if beta1 == 0.0:
                assert state.m is None
            else:
                np.testing.assert_array_equal(state.m[k], ref_m[k])
            np.testing.assert_array_equal(state.v[k], ref_v[k])
            if amsgrad:
                np.testing.assert_array_equal(state.vmax[k], ref_vmax[k])
    assert state.t == 4


def test_adam_nan_in_last_block_changes_nothing():
    cfg = TrainConfig(variant="local2o", adam_beta1=0.9)
    params, rng = _block_problem(seed=2)
    state = AdamState(params.tensors)
    for step in (1, 2):
        assert adam_step(params, _block_grads(rng, step), state, cfg)
    before = [
        {k: a.copy() for k, a in d.items()} for d in (params.tensors, state.m, state.v)
    ]
    grads = _block_grads(rng, 3)
    grads["cube"][-1, -1, -1] = np.nan  # the last element of the last tensor
    assert not adam_step(params, grads, state, cfg)
    assert state.t == 2 and state.skipped == 1
    for old, new in zip(before, (params.tensors, state.m, state.v)):
        for k in old:
            np.testing.assert_array_equal(new[k], old[k])


def test_make_batches_respects_token_budget():
    sents = [make_sentence(n) for n in (3, 3, 4, 2, 5)]
    batches = make_batches(sents, batch_tokens=7)
    assert [i for b in batches for i in b] == list(range(5))
    for b in batches[:-1]:
        assert sum(len(sents[i]) for i in b) <= 7
    shuffled = make_batches(sents, batch_tokens=7, rng=np.random.default_rng(0))
    assert sorted(i for b in shuffled for i in b) == list(range(5))
    for budget in range(1, 11):
        assert all(make_batches(sents, budget, rng=np.random.default_rng(budget)))


def test_batch_gradients_deterministic_and_order_invariant():
    params = make_params(seed=6)
    cfg = TrainConfig(variant="local2o", iterations=2)
    batch = [make_sentence(2), make_sentence(3)]
    loss1, g1 = batch_gradients(batch, params, cfg)
    loss2, g2 = batch_gradients(batch, params, cfg)
    for k in g1:
        np.testing.assert_array_equal(g1[k], g2[k])
    loss3, g3 = batch_gradients(batch[::-1], params, cfg)
    np.testing.assert_allclose(loss1, loss3, atol=1e-12)
    for k in g1:
        np.testing.assert_allclose(g1[k], g3[k], atol=1e-12)


def _reference_batch_gradients(batch, params, cfg):
    """Every batch gradient starts from zeros; each sentence adds into it."""
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    for sent in batch:
        loss, _, pv = sentence_loss(sent, params, cfg.variant, cfg.iterations, cfg.lam)
        ad.backward(loss)
        for name, var in pv.items():
            if var.grad is not None:
                grads[name] += var.grad
    for g in grads.values():
        g /= len(batch)
    return grads


@pytest.mark.parametrize("lengths", [(4,), (2, 5, 3)])
def test_batch_gradients_match_zero_initialised_sum(lengths):
    params = make_params(seed=6)
    params.tensors["unused"] = np.ones((2, 3))  # no op reads it: no gradient
    cfg = TrainConfig(variant="local2o", iterations=2)
    batch = [make_sentence(n) for n in lengths]
    _, grads = batch_gradients(batch, params, cfg)
    ref = _reference_batch_gradients(batch, params, cfg)
    assert list(grads) == list(params.tensors)
    for k in ref:
        np.testing.assert_array_equal(grads[k], ref[k])
    np.testing.assert_array_equal(grads["unused"], np.zeros((2, 3)))
    arrays = list(grads.values()) + list(params.tensors.values())
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("variant", ["local2o", "single2o"])
def test_graphs_are_freed_without_the_cycle_collector(variant):
    # a graph holds only parent links, so dropping its root frees it by
    # reference counting; a cycle would leave thousands of objects here
    sents = read_conllu_file(TOY_TREEBANK)[:5]
    mc = ModelConfig.for_variant(variant, d_word=4, d_pos=2, d_hidden=3,
                                 d_edge=4, d_label=3, d_bin=2)
    params = init_params(mc, *build_vocabs(sents), seed=0)
    cfg = TrainConfig(variant=variant)
    gc.collect()
    gc.disable()
    try:
        evaluate(params, sents, variant)
        after_evaluate = gc.collect()
        batch_gradients(sents, params, cfg)
        after_gradients = gc.collect()
    finally:
        gc.enable()
    assert (after_evaluate, after_gradients) == (0, 0)


def test_train_overfits_one_sentence():
    corpus = [make_sentence(3)]
    cfg = TrainConfig(
        variant="local2o", iterations=2, max_iterations=200, eval_every=5,
        batch_tokens=50, seed=0,
    )
    mc = ModelConfig(d_word=8, d_pos=4, d_hidden=6, d_edge=8, d_label=6, d_bin=4)
    result = train(corpus, corpus, cfg, model_config=mc, target_uas=100.0)
    uas, las, _ = evaluate(result.params, corpus, "local2o", 2)
    assert uas == 100.0
    assert len(result.history) == result.iterations_run


TOY_DIMS = dict(d_word=4, d_pos=2, d_hidden=3, d_edge=5, d_label=3, d_bin=2)


def test_trained_params_record_the_variant_they_were_trained_with():
    corpus = read_conllu_file(TOY_TREEBANK)[:8]
    mc = ModelConfig(**TOY_DIMS)  # its variant is local2o
    result = train(corpus, corpus, TrainConfig(variant="single2o", max_iterations=3, eval_every=3),
                   model_config=mc)
    assert result.params.config.variant == "single2o"
    uas, las, _ = evaluate(result.params, corpus)
    last = result.history[-1]
    assert (uas, las) == (last["dev_uas"], last["dev_las"])


def test_trained_params_record_the_iterations_they_were_trained_with():
    corpus = [make_sentence(3)]
    params = make_params(seed=3)
    assert params.config.iterations == 3
    cfg = TrainConfig(variant="local2o", iterations=2, max_iterations=1, batch_tokens=50)
    assert train(corpus, corpus, cfg, params=params).params.config.iterations == 2


def test_train_and_initial_params_leave_the_model_config_alone():
    corpus = [make_sentence(3)]
    cfg = TrainConfig(variant="single2o", iterations=2, max_iterations=1, batch_tokens=50)
    mc = ModelConfig(**TOY_DIMS)
    trainer.initial_params(corpus, cfg, mc)
    train(corpus, corpus, cfg, model_config=mc)
    assert mc == ModelConfig(**TOY_DIMS)


def _train_with_dev_metric(monkeypatch, metrics, max_iterations):
    """Train on one sentence, evaluating every iteration, with the dev
    scores taken from ``metrics``; returns (result, live params)."""
    scores = iter(metrics)
    monkeypatch.setattr(trainer, "evaluate", lambda *a, **kw: (next(scores),) * 2 + (None,))
    corpus = [make_sentence(3)]
    cfg = TrainConfig(variant="local2o", iterations=2, max_iterations=max_iterations,
                      eval_every=1, batch_tokens=50, seed=0)
    params = make_params(seed=3)
    return train(corpus, corpus, cfg, params=params), params


@pytest.mark.parametrize(
    "metrics,best_step",
    [
        ([10.0, 20.0, 30.0], 3),  # improves every time: snapshot updated in place
        ([10.0, 10.0, 10.0], 1),  # improves once: the first snapshot is kept
        ([math.nan] * 3, None),  # never improves: the final params
    ],
)
def test_train_result_params_are_a_snapshot(monkeypatch, metrics, best_step):
    result, live = _train_with_dev_metric(monkeypatch, metrics, max_iterations=3)
    if best_step is None:
        assert result.best_dev == -1.0
        best_step = 3
    _, expected = _train_with_dev_metric(monkeypatch, metrics, max_iterations=best_step)
    assert set(result.params.tensors) == set(live.tensors)
    for k, v in result.params.tensors.items():
        assert not np.shares_memory(v, live.tensors[k])
        np.testing.assert_array_equal(v, expected.tensors[k])


@pytest.mark.parametrize("head,deprel", [("_", "root"), ("0", "_")])
@pytest.mark.parametrize("where", ["corpus", "dev"])
def test_train_rejects_unannotated_sentences(head, deprel, where):
    bad = parse_conllu(
        f"1\ta\ta\tX\tX\t_\t{head}\t{deprel}\t_\t_\n"
        "2\tb\tb\tX\tX\t_\t1\tdep\t_\t_\n\n"
    )
    good = [make_sentence(2)]
    corpus, dev = (bad, good) if where == "corpus" else (good, bad)
    cfg = TrainConfig(variant="local2o", max_iterations=1, batch_tokens=50)
    mc = ModelConfig(d_word=3, d_pos=2, d_hidden=2, d_edge=3, d_label=2, d_bin=2)
    name = "training corpus" if where == "corpus" else "dev set"
    with pytest.raises(ConlluError, match=f"{name}: sentence 1, word 1"):
        train(corpus, dev, cfg, model_config=mc)


@pytest.mark.parametrize("head", ["-1", "3", "1"])  # below 0, above n = 2, own index
@pytest.mark.parametrize("where", ["corpus", "dev"])
def test_train_rejects_invalid_gold_heads(head, where):
    bad = parse_conllu(
        f"1\ta\ta\tX\tX\t_\t{head}\tdep\t_\t_\n"
        "2\tb\tb\tX\tX\t_\t0\troot\t_\t_\n\n"
    )
    good = [make_sentence(2)]
    corpus, dev = (bad, good) if where == "corpus" else (good, bad)
    cfg = TrainConfig(variant="local2o", max_iterations=1, batch_tokens=50)
    mc = ModelConfig(d_word=3, d_pos=2, d_hidden=2, d_edge=3, d_label=2, d_bin=2)
    name = "training corpus" if where == "corpus" else "dev set"
    with pytest.raises(ConlluError, match=f"{name}: sentence 1, word 1 has HEAD {head};"):
        train(corpus, dev, cfg, model_config=mc)


def test_train_frees_the_batch_gradient_after_its_adam_step(monkeypatch):
    # the batch gradient (as large as the parameters) must not live on
    # through dev evaluation, the snapshot copy and the next backward
    refs, evaluated = [], []
    real_adam_step = trainer.adam_step

    def watched_adam_step(params, grads, state, config, lr=None):
        refs[:] = [weakref.ref(g) for g in grads.values()]
        return real_adam_step(params, grads, state, config, lr=lr)

    def checked_evaluate(*a, **kw):
        assert refs and all(r() is None for r in refs)
        evaluated.append(True)
        return 50.0, 50.0, None

    monkeypatch.setattr(trainer, "adam_step", watched_adam_step)
    monkeypatch.setattr(trainer, "evaluate", checked_evaluate)
    cfg = TrainConfig(variant="local2o", iterations=2, max_iterations=2, eval_every=1,
                      batch_tokens=50)
    train([make_sentence(3)], [make_sentence(3)], cfg, params=make_params(seed=3))
    assert len(evaluated) == 2


def test_training_step_memory_budget_at_default_dims(traced_peak):
    # P = parameter bytes. Adam's state at beta1 = 0 is the second moment
    # only (a first moment would add P), beside its two fixed work buffers
    # and the small objects of one array per tensor; a step holds one
    # gradient array per parameter (a copy of U_edge's gradient adds 0.24 P)
    # and little else, since backward frees the graph as it walks it:
    # measured 1.02 P at n = 10, and 1.28 P while the graph lived on
    sent = make_sentence(10)
    cfg = TrainConfig(variant="local2o")
    assert cfg.adam_beta1 == 0.0
    params = init_params(ModelConfig.for_variant("local2o"), *build_vocabs([sent]), seed=0)
    P = sum(a.nbytes for a in params.tensors.values())
    traced_peak()
    state = AdamState(params.tensors)
    assert traced_peak() <= P + state.work.nbytes + state.finite.nbytes + 256 * len(params.tensors)
    _, grads = batch_gradients([sent], params, cfg)
    assert adam_step(params, grads, state, cfg)
    assert traced_peak() < 1.1 * P


def test_a_training_sentence_holds_its_gradients_and_little_else(traced_peak):
    # backward drops each node's VJP closure once it has run, and with it
    # the forward arrays it captured: one n = 40 sentence at default dims
    # peaked 0.97 MiB above its gradients, and 5.94 MiB while the graph
    # lived to the end of backward
    sent = make_sentence(40)
    params = init_params(ModelConfig.for_variant("local2o"), *build_vocabs([sent]), seed=0)
    traced_peak()
    _, grads = batch_gradients([sent], params, TrainConfig(variant="local2o"))
    assert traced_peak() <= sum(g.nbytes for g in grads.values()) + 1.5 * 2**20


def test_batch_gradients_frees_a_sentence_graph_before_the_next(traced_peak):
    # P = parameter bytes. Sentences of n = 34 and 40 at default dims
    # peaked at 1.69 P, and at 2.30 P when the first sentence's graph lived
    # on through the second sentence's forward and backward
    sents = [make_sentence(34), make_sentence(40, shift=1)]
    params = init_params(ModelConfig.for_variant("local2o"), *build_vocabs(sents), seed=0)
    P = sum(a.nbytes for a in params.tensors.values())
    traced_peak()
    batch_gradients(sents, params, TrainConfig(variant="local2o"))
    assert traced_peak() < 2 * P


def test_train_rejects_an_empty_dev_set(monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "batch_gradients", lambda *a, **kw: steps.append(a))
    cfg = TrainConfig(variant="local2o", max_iterations=2, eval_every=1, batch_tokens=50)
    with pytest.raises(ValueError, match="empty dev set"):
        train([make_sentence(3)], [], cfg, params=make_params(seed=3))
    assert not steps


@pytest.mark.parametrize("corpus,max_len", [("comment-only", 90), ("too-long", 2)])
def test_train_rejects_a_corpus_with_no_words(corpus, max_len, monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "batch_gradients", lambda *a, **kw: steps.append(a))
    sentences = {"comment-only": parse_conllu("# newdoc\n\n"), "too-long": [make_sentence(3)]}
    cfg = TrainConfig(variant="local2o", max_iterations=2, eval_every=1, max_train_len=max_len)
    message = rf"training corpus has no words .*max_train_len = {max_len}\b"
    with pytest.raises(ValueError, match=message):
        train(sentences[corpus], [make_sentence(3)], cfg, params=make_params(seed=3))
    assert not steps


def test_train_lr_decay_arithmetic():
    corpus = [make_sentence(2)]
    cfg = TrainConfig(
        variant="local1o", max_iterations=3, eval_every=1, decay_step=1,
        batch_tokens=50, learning_rate=0.01, early_stop=100,
    )
    mc = ModelConfig(d_word=3, d_pos=2, d_hidden=2, d_edge=3, d_label=2, d_bin=2)
    result = train(corpus, corpus, cfg, model_config=mc)
    lrs = [h["lr"] for h in result.history]
    assert lrs[0] == 0.01
    assert any(lr == pytest.approx(0.01 * 0.85, abs=0) for lr in lrs)


def test_model_checkpoint_roundtrip(tmp_path):
    params = make_params(seed=9)
    path = str(tmp_path / "model.bin")
    save_model(params, path)
    back = load_model(path)
    assert back.config == params.config
    assert back.word2id == params.word2id
    assert back.labels == params.labels
    assert set(back.tensors) == set(params.tensors)
    for k in params.tensors:
        np.testing.assert_array_equal(back.tensors[k], params.tensors[k])


def test_model_checkpoint_loads_owned_arrays_and_resaves_identically(tmp_path):
    params = make_params(seed=9)
    first, second = str(tmp_path / "first.bin"), str(tmp_path / "second.bin")
    save_model(params, first)
    back = load_model(first)
    for v in back.tensors.values():
        assert v.dtype == np.float64
        assert v.flags.writeable and v.flags.c_contiguous and v.flags.owndata
    save_model(back, second)
    assert (tmp_path / "first.bin").read_bytes() == (tmp_path / "second.bin").read_bytes()


def test_model_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_model(str(path))


def test_model_checkpoint_rejects_wrong_size(tmp_path):
    params = make_params(seed=9)
    path = tmp_path / "model.bin"
    save_model(params, str(path))
    data = path.read_bytes()
    n = len(data)
    for name, body, actual in (
        ("truncated.bin", data[:-8], n - 8),
        ("padded.bin", data + b"\0" * 3, n + 3),
        ("header-only.bin", data[:10], 10),
    ):
        bad = tmp_path / name
        bad.write_bytes(body)
        with pytest.raises(ValueError, match=rf"\b{actual}\b"):
            load_model(str(bad))
    with pytest.raises(ValueError, match=rf"implies {n} bytes, file has {n - 8}"):
        load_model(str(tmp_path / "truncated.bin"))


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda t: t.pop("W_sib"), r"lacks tensor 'W_sib' \(expected shape \(3, 2, 2\)\)"),
        # same element count as the expected (3, 2, 2): reshaping would not fail
        (
            lambda t: t.update(W_sib=np.zeros((2, 3, 2))),
            r"tensor 'W_sib' has shape \(2, 3, 2\), expected \(3, 2, 2\)",
        ),
        (
            lambda t: t.update(U_label=np.zeros((2, 5, 5))),
            r"tensor 'U_label' has shape \(2, 5, 5\), expected \(3, 5, 5\)",
        ),
        (lambda t: t.update(W_extra=np.zeros(3)), r"unexpected tensor 'W_extra'"),
    ],
)
def test_model_checkpoint_checks_tensor_names_and_shapes(tmp_path, edit, message):
    params = make_params(seed=9)  # d_bin = 2, d_label = 4, 3 labels
    edit(params.tensors)
    path = str(tmp_path / "model.bin")
    save_model(params, path)
    with pytest.raises(ValueError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("d_bin", 0, "d_bin must be >= 1"),
        ("iterations", -1, "iterations must be >= 0"),
        ("p_drop_edge", 1.0, r"p_drop_edge must lie in \[0, 1\)"),
        ("p_drop_label", float("nan"), r"p_drop_label must lie in \[0, 1\)"),
    ],
)
def test_model_config_range_checks_reach_for_variant_and_load_model(
        tmp_path, field, value, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig.for_variant("local2o", **{field: value})
    params = make_params(seed=9)
    setattr(params.config, field, value)  # past the check, as a foreign writer might
    path = str(tmp_path / "model.bin")
    save_model(params, path)
    with pytest.raises(ValueError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "variant,d_edge,T,lam",
    [("local1o", 450, 0, 0.40), ("single1o", 550, 0, 0.07),
     ("local2o", 450, 3, 0.40), ("single2o", 550, 3, 0.07)],
)
def test_model_and_train_configs_take_the_variants_defaults(variant, d_edge, T, lam):
    config = ModelConfig(variant=variant)
    assert config == ModelConfig.for_variant(variant)
    assert (config.d_edge, config.iterations) == (d_edge, T)
    train_config = TrainConfig(variant=variant)
    assert (train_config.lam, train_config.iterations) == (lam, T)


def test_model_config_and_load_model_refuse_an_unknown_variant(tmp_path):
    with pytest.raises(ValueError, match="unknown variant 'Local2o'; expected one of local1o"):
        ModelConfig(variant="Local2o")
    with pytest.raises(ValueError, match="unknown variant 'nonsense'"):
        ModelConfig.for_variant("nonsense")
    params = make_params(seed=9)
    params.config.variant = "Single2o"  # past the check, as a foreign writer might
    path = str(tmp_path / "model.bin")
    save_model(params, path)
    with pytest.raises(ValueError, match="unknown variant 'Single2o'"):
        load_model(path)


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "iterations = 4\nlam = 0.25  # interpolation\n"
        "dropout = true\nvariant = single2o\n\n# comment only\n",
        encoding="utf-8",
    )
    out = parse_config_file(str(cfg))
    assert out == {
        "iterations": 4, "lam": 0.25, "dropout": True, "variant": "single2o"
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))


def test_parse_batches_hold_one_length_within_both_budgets(monkeypatch):
    # at most PARSE_WINDOW // (n+1) and PARSE_CELLS // ((n+1) 6 d_bin)
    # sentences a batch, and at least one: both budgets count per encoder
    # row, 6 d_bin factor floats a row for the second. A window of 12 rows
    # binds beside 200 floats at d_bin = 2 (16 rows), and 200 floats bind
    # at d_bin = 4 (8 rows); n = 0 takes all its sentences, and a sentence
    # of 21 rows makes a batch of its own
    lengths = (2, 4, 0, 2, 20, 2, 4, 2, 2, 0, 20)
    sentences = [[None] * n for n in lengths]  # only len() is read
    monkeypatch.setattr(trainer, "PARSE_CELLS", 200)
    monkeypatch.setattr(trainer, "PARSE_WINDOW", 12)
    assert list(trainer._batches(sentences, 2)) == [
        [0, 3, 5, 7], [8], [1, 6], [2, 9], [4], [10]]
    monkeypatch.setattr(trainer, "PARSE_WINDOW", 512)
    assert list(trainer._batches(sentences, 4)) == [
        [0, 3], [5, 7], [8], [1], [6], [2, 9], [4], [10]]


def test_parse_batches_sentences_of_one_length_across_the_whole_input(monkeypatch):
    # two n = 3 sentences lie 561 encoder rows apart, more than PARSE_WINDOW:
    # they share one encode call and one (2, 4, 4) MFVI stack
    sentences = [make_sentence(3)] + [make_sentence(50, k) for k in range(11)] + [
        make_sentence(3, 1)]
    params = init_params(ModelConfig(**TOY_DIMS), *build_vocabs(sentences), seed=0)
    encoded, stacks = [], []

    def counted_encode(batch, *args, **kwargs):
        encoded.append([len(s) for s in batch])
        return trainer_encode(batch, *args, **kwargs)

    def counted_mfvi(scores, *args, **kwargs):
        stacks.append(scores.s_edge.shape)
        return trainer_mfvi(scores, *args, **kwargs)

    trainer_encode, trainer_mfvi = trainer.encode, trainer.decoder.mfvi
    monkeypatch.setattr(trainer, "encode", counted_encode)
    monkeypatch.setattr(trainer.decoder, "mfvi", counted_mfvi)
    trees = trainer.parse_sentences(params, sentences)
    assert [len(t.heads) for t in trees] == [len(s) for s in sentences]
    assert [lengths for lengths in encoded if 3 in lengths] == [[3, 3]]
    assert [shape for shape in stacks if shape[-1] == 4] == [(2, 4, 4)]


@pytest.mark.parametrize("window, cells", [
    pytest.param(20, trainer.PARSE_CELLS, id="20"),
    pytest.param(trainer.PARSE_WINDOW, trainer.PARSE_CELLS, id=str(trainer.PARSE_WINDOW)),
    pytest.param(20, 700, id="20-cells700"),
    pytest.param(trainer.PARSE_WINDOW, 700, id=f"{trainer.PARSE_WINDOW}-cells700"),
])
@pytest.mark.parametrize("variant", ["local2o", "single2o"])
def test_parse_sentences_matches_parsing_each_sentence_alone(variant, window, cells, monkeypatch):
    # lengths 3, 5 and 6 interleaved, and a sentence with no words; a row
    # budget of 20 cuts the lengths into batches of 5 (n = 3), 3 (n = 5)
    # and 2 (n = 6), and a budget of 700 factor floats (29 rows at
    # d_bin = 4) beside 512 rows into batches of 7, 4 and 4
    sentences = read_conllu_file(TOY_TREEBANK)[:20]
    sentences.insert(7, parse_conllu("# newdoc\n\n")[0])
    cfg = ModelConfig(variant=variant, d_word=6, d_pos=4, d_hidden=5, d_edge=6, d_label=5,
                      d_bin=4)
    params = init_params(cfg, *build_vocabs(sentences), seed=2)
    monkeypatch.setattr(trainer, "PARSE_WINDOW", window)
    monkeypatch.setattr(trainer, "PARSE_CELLS", cells)
    trees = trainer.parse_sentences(params, sentences)
    assert len(trees) == len(sentences)
    for sent, tree in zip(sentences, trees):
        rows = row_layers(encode([sent], params), params)
        scores = score_sentence(sent, params, rows)
        heads, mst = decode(mfvi(scores, variant, cfg.iterations).head_probs()[0])
        labels = score_labels(rows.label, [heads], params)[0].argmax(axis=-1)
        np.testing.assert_array_equal(tree.heads, heads)
        np.testing.assert_array_equal(tree.labels, labels)
        assert tree.mst == mst
    assert len(trees[7].heads) == 0
    assert any(t.mst for t in trees) and not all(t.mst for t in trees)


def test_batched_scores_match_scoring_each_sentence_alone_at_default_dims():
    # the factor budget allows 145 encoder rows a batch at default dims:
    # 145 empty sentences (n = 0) and 29 of n = 4 fill a batch each, and the
    # rest make a second. Each sentence's edge scores and factor blocks,
    # from its batch's row-wise layers and its own biaffine, and its label
    # scores on its gold heads, from one label op over the batch, match
    # scoring it alone within 1e-12 relative: a product over the B (n+1)
    # rows of a batch may round otherwise than one over n+1 rows
    empty = parse_conllu("# newdoc\n\n")[0]
    sentences = [empty] * 150 + [make_sentence(4, shift) for shift in range(33)]
    params = init_params(ModelConfig(), *build_vocabs(sentences), seed=0)
    batches = list(trainer._batches(sentences, params.config.d_bin))
    assert [len(ks) for ks in batches] == [145, 5, 29, 4]
    for ks in batches:
        batch = [sentences[k] for k in ks]
        rows = row_layers(encode(batch, params), params)
        gold = [sent.gold_heads for sent in batch]
        labels = score_labels(rows.label, np.array(gold, dtype=int), params)
        for b, sent in enumerate(batch):
            got = score_sentence(sent, params, rows.sentence(b))
            alone_rows = row_layers(encode([sent], params), params)
            alone = score_sentence(sent, params, alone_rows)
            pairs = [(getattr(got, name), getattr(alone, name)) for name in ("s_edge", "s_sib",
                                                                              "s_gp")]
            pairs.append((labels[b:b + 1], score_labels(alone_rows.label, [gold[b]], params)))
            for name, (x, y) in zip(("s_edge", "s_sib", "s_gp", "label"), pairs):
                if name in ("s_sib", "s_gp"):
                    x, y = x.block, y.block
                assert x.shape == y.shape, name
                if y.size:
                    assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), name


def test_parse_labels_ties_go_to_the_smallest_label_id():
    # U_label[2] = U_label[1] ties labels 1 and 2 bit for bit, and
    # U_label[0] = -U_label[1] makes label 0 the better one exactly where
    # label 1 scores below 0: no word takes label 2; with all three equal,
    # every word takes label 0. U_label[1] reads no constant-1 column, so
    # that the sign of its score varies
    sentences = [make_sentence(n, shift) for n in (3, 5) for shift in range(3)]
    params = init_params(ModelConfig(**TOY_DIMS), *build_vocabs(sentences), seed=4)
    U = params.tensors["U_label"]
    assert U.shape[0] == 3
    U[1, -1, :] = U[1, :, -1] = 0.0
    U[2] = U[1]
    U[0] = -U[1]
    trees = trainer.parse_sentences(params, sentences)
    for sent, tree in zip(sentences, trees):
        rows = row_layers(encode([sent], params), params)
        s1 = score_labels(rows.label, [tree.heads], params)[0, :, 1]
        assert tree.labels.tolist() == (s1 > 0).astype(int).tolist()
    assert {lab for t in trees for lab in t.labels.tolist()} == {0, 1}
    U[0] = U[2]
    assert all(not t.labels.any() for t in trainer.parse_sentences(params, sentences))


def test_parse_sentences_keeps_one_step_of_gru_gates_at_default_dims(monkeypatch, traced_peak):
    # with the factor budget lifted, the row budget cuts 200 sentences of
    # n = 10 into batches of 46, each one encoder pass over 506 rows. The
    # peak of each encoding, above what the parse held when it began, was
    # measured at 7.4 MiB (mostly the six input projections and their
    # step-major copies), and at 13.4 with a GRU that keeps the gates of
    # every step, 6 d_hidden floats a row, as only its VJP needs
    sentences = [make_sentence(10, shift) for shift in range(200)]
    params = init_params(ModelConfig(), *build_vocabs(sentences), seed=0)
    peaks = []

    def measured_encode(*args, **kwargs):
        traced_peak()
        out = encode(*args, **kwargs)
        peaks.append(traced_peak())
        return out

    monkeypatch.setattr(trainer, "encode", measured_encode)
    monkeypatch.setattr(trainer, "PARSE_CELLS", 1 << 30)
    trainer.parse_sentences(params, sentences)
    assert len(peaks) == 5
    assert max(peaks) < 10 * 2**20


@pytest.mark.parametrize("n, count", [(1, 600), (20, 100)])
def test_parse_sentences_holds_one_chunk_of_scores_at_default_dims(n, count, monkeypatch,
                                                                  traced_peak):
    # from one encoding to the next a parse holds one batch's encodings,
    # scores, stacked factor blocks and MFVI iterates. The factor budget
    # binds at default dims, 145 rows a batch: 72 sentences at n = 1 and 6
    # at n = 20. Measured above what the parse held when the batch's
    # encoding began: 3.2 and 2.8 MiB; with the row budget alone (256 and
    # 24 a batch) 11.4 and 11.2
    sentences = [make_sentence(n, shift) for shift in range(count)]
    params = init_params(ModelConfig(), *build_vocabs(sentences), seed=0)
    peaks = []

    def encode(*args, **kwargs):  # the peak since the last encoding began
        peaks.append(traced_peak())
        return trainer_encode(*args, **kwargs)

    trainer_encode = trainer.encode
    monkeypatch.setattr(trainer, "encode", encode)
    trees = trainer.parse_sentences(params, sentences)
    peaks.append(traced_peak())
    assert len(trees) == count and len(peaks) > 2
    assert max(peaks[1:]) < 5 * 2**20


def test_a_long_sentence_parses_in_bounded_memory_at_default_dims(traced_peak):
    # one n = 200 sentence: MFVI reads the rank-d_bin factors, O(n (n + r))
    # floats, and no (n+1)^3 sibling or grandparent cube is built (two such
    # cubes peaked at 172 MiB here); measured 6.6 MiB. With 40 labels, as a
    # treebank has, no (n+1)^2 L cube of every pair's label scores is built
    # either: the label op reads the n decoded edges (the cube and its
    # transposed copy peaked at 37.4 MiB here)
    sentences = [make_sentence(200)]
    w2i, p2i, labels = build_vocabs(sentences)
    for names in (labels, [f"l{k}" for k in range(40)]):
        params = init_params(ModelConfig(), w2i, p2i, names, seed=0)
        traced_peak()
        trees = trainer.parse_sentences(params, sentences)
        assert traced_peak() < 16 * 2**20, len(names)
        assert len(trees[0].heads) == 200 and trees[0].labels.max() < len(names)

import ast
import importlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_TREEBANK
import mfdep.decoder
from mfdep.cli import run
from mfdep.conllu import read_conllu_file, write_conllu_file
from mfdep.scorer import ModelConfig, build_vocabs, init_params, load_embeddings
from mfdep.trainer import (TrainConfig, evaluate, load_model, parse_sentences, save_model,
                           train)

TINY_DIMS = dict(d_word=4, d_pos=2, d_hidden=3, d_edge=4, d_label=3, d_bin=2)
# one training step at TINY_DIMS: a run that should have been refused ends quickly
TINY_RUN_CFG = "max_iterations = 1\n" + "".join(f"{k} = {v}\n" for k, v in TINY_DIMS.items())


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained desk-scale model plus the treebank it was trained on."""
    root = tmp_path_factory.mktemp("cli")
    train_file = str(root / "train.conllu")
    write_conllu_file(train_file, read_conllu_file(TOY_TREEBANK)[:6])
    cfg_file = root / "run.cfg"
    cfg_file.write_text(
        "max_iterations = 25\neval_every = 5\nbatch_tokens = 200\n"
        "d_word = 16\nd_pos = 8\nd_hidden = 12\nd_edge = 16\n"
        "d_label = 8\nd_bin = 6\n",
        encoding="utf-8",
    )
    model = str(root / "model.bin")
    code = run([
        "train", "--variant", "local2o", "--iterations", "2",
        "--train", train_file, "--model", model,
        "--config", str(cfg_file), "--seed", "0",
        "--history", str(root / "history.json"),
    ])
    assert code == 0
    return {"root": root, "train": train_file, "model": model}


def test_train_writes_model_and_history(workspace):
    root = workspace["root"]
    assert (root / "model.bin").read_bytes()[:4] == b"MFD1"
    history = json.loads((root / "history.json").read_text())
    assert len(history) == 25
    assert all("loss" in h for h in history)


def test_parse_then_eval_reaches_perfect_uas(workspace, capsys):
    root = workspace["root"]
    out = str(root / "parsed.conllu")
    assert run([
        "parse", "--variant", "local2o", "--iterations", "2",
        "--model", workspace["model"], "--input", workspace["train"],
        "--output", out,
    ]) == 0
    assert run([
        "eval", "--gold", workspace["train"], "--pred", out, "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["uas"] == 100.0
    assert report["las"] == 100.0


def test_second_order_with_zero_iterations_equals_first_order(workspace):
    root = workspace["root"]
    a, b = str(root / "a.conllu"), str(root / "b.conllu")
    for variant, iters, out in (("local2o", "0", a), ("local1o", None, b)):
        argv = ["parse", "--variant", variant, "--model", workspace["model"],
                "--input", workspace["train"], "--output", out]
        if iters is not None:
            argv += ["--iterations", iters]
        assert run(argv) == 0
    assert (root / "a.conllu").read_bytes() == (root / "b.conllu").read_bytes()


def test_parse_deterministic(workspace):
    root = workspace["root"]
    outs = []
    for name in ("r1.conllu", "r2.conllu"):
        out = str(root / name)
        assert run([
            "parse", "--variant", "local2o", "--model", workspace["model"],
            "--input", workspace["train"], "--output", out,
        ]) == 0
        outs.append((root / name).read_bytes())
    assert outs[0] == outs[1]


def test_parse_defaults_to_checkpoint_variant_and_iterations(workspace, tmp_path, monkeypatch):
    w2i, p2i, labels = build_vocabs(read_conllu_file(workspace["train"]))
    cfg = ModelConfig.for_variant("single2o", d_word=4, d_pos=2, d_hidden=3,
                                  d_edge=4, d_label=3, d_bin=2, iterations=2)
    model = str(tmp_path / "single.bin")
    save_model(init_params(cfg, w2i, p2i, labels, seed=0), model)
    seen = set()
    real_mfvi = mfdep.decoder.mfvi

    def spy(scores, variant, T=None):
        seen.add((variant, T))
        return real_mfvi(scores, variant, T)

    monkeypatch.setattr(mfdep.decoder, "mfvi", spy)
    argv = ["parse", "--model", model, "--input", workspace["train"],
            "--output", str(tmp_path / "out.conllu")]
    assert run(argv) == 0
    assert seen == {("single2o", 2)}
    seen.clear()
    assert run(argv + ["--variant", "local2o"]) == 0
    assert seen == {("local2o", None)}
    seen.clear()
    assert run(argv + ["--iterations", "1"]) == 0
    assert seen == {("single2o", 1)}


def test_train_embeddings_are_the_starting_point(tmp_path):
    train_file = tmp_path / "train.conllu"
    sents = read_conllu_file(TOY_TREEBANK)[:4]
    write_conllu_file(str(train_file), sents)
    with open(train_file, "a", encoding="utf-8") as f:  # too long: max_train_len = 6
        f.write("".join(f"{k}\tzebra\tzebra\tNOUN\tNN\t_\t{k - 1}\tdep\t_\t_\n"
                        for k in range(1, 8)) + "\n")
    emb = tmp_path / "vectors.txt"
    words = [t.form for t in sents[0].tokens[:3]] + ["zebra"]
    emb.write_text("".join(f"{w} {k} 0.5 -1 2\n" for k, w in enumerate(words)), encoding="utf-8")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("max_iterations = 3\neval_every = 3\nbatch_tokens = 30\n"
                        "max_train_len = 6\n"
                        + "".join(f"{k} = {v}\n" for k, v in TINY_DIMS.items()),
                        encoding="utf-8")
    model = tmp_path / "cli.bin"
    assert run(["train", "--variant", "single2o", "--iterations", "1",
                "--train", str(train_file), "--model", str(model),
                "--config", str(cfg_file), "--embeddings", str(emb)]) == 0

    corpus = read_conllu_file(str(train_file))
    config = TrainConfig(variant="single2o", iterations=1, max_iterations=3,
                         eval_every=3, batch_tokens=30, max_train_len=6)
    kept = [s for s in corpus if len(s) <= 6]
    mc = ModelConfig.for_variant("single2o", iterations=1, **TINY_DIMS)
    params = init_params(mc, *build_vocabs(kept), seed=0)
    assert "zebra" not in params.word2id
    assert load_embeddings(str(emb), params) == 3
    expect = tmp_path / "expect.bin"
    save_model(train(corpus, corpus, config, params=params).params, str(expect))
    assert model.read_bytes() == expect.read_bytes()


@pytest.mark.parametrize(
    "text,message",
    [
        ("the 1 2 3 4\nfox 1 2 3 x\n", ", line 2: the vector of 'fox' holds a value"),
        ("400000 4\nthe 1 2 3\n", ": no line holds a word and 4 numbers (d_word = 4)"),
    ],
)
def test_train_rejects_embeddings_it_cannot_read(text, message, workspace, tmp_path, capsys):
    emb = tmp_path / "vectors.txt"
    emb.write_text(text, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--embeddings", str(emb), "--model", str(model)]) == 1
    assert f"error: {emb}{message}" in capsys.readouterr().err
    assert not model.exists()


def test_train_logs_how_many_word_vectors_it_loaded(workspace, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MFDEP_LOG", "1")
    emb = tmp_path / "vectors.txt"
    emb.write_text("400000 4\nthe 1 2 3 4\nfox 1 2 3 4\nunseen 1 2 3 4\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--embeddings", str(emb), "--model", str(tmp_path / "m.bin")]) == 0
    assert f"loaded 2 word vectors from {emb}" in capsys.readouterr().err


COMMENT_BLOCK = "# newdoc id = d1\n# a block of comments alone reads as a sentence with no words\n\n"


def test_parse_writes_a_comment_only_block_back(workspace, tmp_path):
    with open(workspace["train"], encoding="utf-8") as f:
        text = f.read()
    with_block = tmp_path / "with_block.conllu"
    with_block.write_text(COMMENT_BLOCK + text, encoding="utf-8")
    plain_out, block_out = tmp_path / "plain.out", tmp_path / "block.out"
    for src, out in ((workspace["train"], plain_out), (with_block, block_out)):
        assert run(["parse", "--single-root", "on", "--model", workspace["model"],
                    "--input", str(src), "--output", str(out)]) == 0
    assert block_out.read_bytes() == COMMENT_BLOCK.encode() + plain_out.read_bytes()


def test_parse_writes_a_block_of_a_multiword_range_alone_back(workspace, tmp_path):
    block = "1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
    with open(workspace["train"], encoding="utf-8") as f:
        text = f.read()
    src, out = tmp_path / "in.conllu", tmp_path / "out.conllu"
    src.write_text(text + block, encoding="utf-8")
    assert run(["parse", "--model", workspace["model"], "--input", str(src),
                "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8").endswith("\n\n" + block)


def test_train_reads_a_comment_only_block(workspace, tmp_path):
    with open(workspace["train"], encoding="utf-8") as f:
        text = f.read()
    train_file = tmp_path / "train.conllu"
    train_file.write_text(COMMENT_BLOCK + text, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")  # its one step ends with a dev evaluation
    model = tmp_path / "m.bin"
    assert run(["train", "--train", str(train_file), "--config", str(cfg),
                "--model", str(model)]) == 0
    assert model.exists()


UNANNOTATED = (
    "# sent_id = raw-1\n"
    "1\tHe\the\tPRON\tPRP\t_\t_\t_\t_\t_\n"
    "2\truns\trun\tVERB\tVBZ\t_\t_\t_\t_\t_\n\n"
)


def test_parse_reads_unannotated_input(workspace, tmp_path):
    raw = tmp_path / "raw.conllu"
    raw.write_text(UNANNOTATED, encoding="utf-8")
    out = tmp_path / "out.conllu"
    assert run(["parse", "--model", workspace["model"], "--input", str(raw),
                "--output", str(out)]) == 0
    parsed = read_conllu_file(str(out))
    assert len(parsed) == 1 and sorted(parsed[0].gold_heads) == [0, 2]
    assert "_" not in parsed[0].gold_labels


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_reject_unannotated_input(command, workspace, tmp_path, capsys):
    raw = tmp_path / "raw.conllu"
    with open(workspace["train"], encoding="utf-8") as f:
        raw.write_text(f.read() + UNANNOTATED, encoding="utf-8")
    if command == "train":
        argv = ["train", "--train", str(raw), "--model", str(tmp_path / "m.bin")]
    else:
        argv = ["eval", "--gold", str(raw), "--pred", str(raw)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "sentence 7 (sent_id raw-1)" in err and str(raw) in err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("head", ["-1", "3", "1"])  # below 0, above n = 2, own index
@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_reject_invalid_gold_heads(command, head, workspace, tmp_path, capsys):
    bad = tmp_path / "bad.conllu"
    with open(workspace["train"], encoding="utf-8") as f:
        bad.write_text(
            f.read() + "# sent_id = bad-1\n"
            f"1\tHe\the\tPRON\tPRP\t_\t{head}\tnsubj\t_\t_\n"
            "2\truns\trun\tVERB\tVBZ\t_\t0\troot\t_\t_\n\n",
            encoding="utf-8",
        )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    if command == "train":
        argv = ["train", "--train", str(bad), "--config", str(cfg),
                "--model", str(tmp_path / "m.bin")]
    else:
        argv = ["eval", "--gold", str(bad), "--pred", str(bad)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}: sentence 7 (sent_id bad-1), word 1 has HEAD {head};" in err
    assert not (tmp_path / "m.bin").exists()


def test_train_rejects_an_empty_dev_file(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.conllu"
    empty.write_text("", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", workspace["train"], "--dev", str(empty),
                "--config", str(cfg), "--model", str(model)]) == 1
    assert str(empty) in capsys.readouterr().err
    assert not model.exists()


def test_checkpoint_records_the_variant_the_config_file_sets(workspace, tmp_path):
    # the config file's variant wins over --variant, for the model too:
    # its config and its d_edge default are those of the variant trained
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iterations = 1\nvariant = single2o\n"
                   + "".join(f"{k} = {v}\n" for k, v in TINY_DIMS.items() if k != "d_edge"),
                   encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--variant", "local2o", "--train", workspace["train"],
                "--config", str(cfg), "--model", str(model)]) == 0
    config = load_model(str(model)).config
    assert config.variant == "single2o"
    assert config.d_edge == ModelConfig.for_variant("single2o").d_edge


def test_train_rejects_an_unknown_config_key(workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG + "lamda = 0.3\n", encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{cfg}: unknown key 'lamda'" in err
    assert not model.exists()


@pytest.mark.parametrize("scale", ["0", "-2", "inf"])
def test_train_rejects_a_scale_that_is_not_positive(scale, workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--scale", scale, "--model", str(model)]) == 1
    assert "error: scale must be > 0" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "line,message",
    [
        ("variant = Single2o", "unknown variant 'Single2o'"),
        ("variant = LOCAL1O", "unknown variant 'LOCAL1O'"),
        ("dev_metric = foo", "dev_metric must be 'las' or 'uas', not 'foo'"),
        ("dev_metric = LAS", "dev_metric must be 'las' or 'uas', not 'LAS'"),
        ("max_iterations = 0", "max_iterations must be >= 1"),
        ("eval_every = 0", "eval_every must be >= 1"),
        ("amsgrad_after = 0", "amsgrad_after must be >= 1"),
        ("early_stop = -3", "early_stop must be >= 1"),
        ("d_hidden = 0", "d_hidden must be >= 1"),
        ("d_hidden = -3", "d_hidden must be >= 1"),
        ("learning_rate = -1", "learning_rate must be > 0"),
        ("learning_rate = inf", "learning_rate must be > 0 and finite"),
        ("adam_eps = inf", "adam_eps must be > 0 and finite"),
        ("scale = inf", "scale must be > 0 and finite"),
        ("adam_beta1 = nan", "adam_beta1 must lie in [0, 1)"),
        ("adam_beta2 = 2", "adam_beta2 must lie in [0, 1)"),
        ("adam_eps = 0", "adam_eps must be > 0"),
        ("decay_rate = 0", "decay_rate must lie in (0, 1]"),
        ("batch_tokens = -5", "batch_tokens must be >= 1"),
        ("iterations = -1", "iterations must be >= 0"),
        ("max_train_len = 0", "max_train_len must be >= 1"),
        ("seed = -4", "seed must be >= 0"),
    ],
)
def test_train_rejects_a_bad_config_value(line, message, workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG + line + "\n", encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--model", str(model)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "line",
    ["single_root = off", "dropout = no", "max_iterations = 2.5", "seed = 1.5",
     "d_hidden = 3.5", "lam = x", "batch_tokens = abc"],
)
def test_train_rejects_a_config_value_its_field_cannot_hold(line, workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG + line + "\n", encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--model", str(model)]) == 1
    err = capsys.readouterr().err
    key, value = line.split(" = ")
    assert err.startswith("error: ") and str(cfg) in err and key in err and repr(value) in err
    assert not model.exists()


def test_parse_has_no_seed_option(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["parse", "--model", workspace["model"], "--input", workspace["train"],
             "--output", str(tmp_path / "out.conllu"), "--seed", "0"])
    assert exc.value.code == 2


def test_dev_evaluation_matches_parse_then_eval_on_the_checkpoints_iterations(
        workspace, tmp_path, capsys):
    # large binary weights at tiny dims: T = 1 and T = 3 give different trees
    sentences = read_conllu_file(workspace["train"])
    cfg = ModelConfig.for_variant("local2o", iterations=1, **TINY_DIMS)
    params = init_params(cfg, *build_vocabs(sentences), seed=1)
    params.tensors["W_sib"] *= 100.0
    params.tensors["W_gp"] *= 100.0
    model = str(tmp_path / "t1.bin")
    save_model(params, model)
    params = load_model(model)
    assert evaluate(params, sentences, T=1)[:2] != evaluate(params, sentences, T=3)[:2]
    out = str(tmp_path / "out.conllu")
    assert run(["parse", "--model", model, "--input", workspace["train"], "--output", out]) == 0
    capsys.readouterr()
    assert run(["eval", "--gold", workspace["train"], "--pred", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert evaluate(params, sentences)[:2] == (report["uas"], report["las"])


def _count_calls(monkeypatch, targets):
    """Rebind each (module, name) of targets, as perfbench's worker does,
    in every mfdep module that binds the function; the returned dict
    collects the positional arguments of each call by name, and under
    "order" the names of all calls in the order they began."""
    calls = {}

    def rebind(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            calls.setdefault("order", []).append(name)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "mfdep" or modname.startswith("mfdep.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)

    for module, name in targets:
        rebind(module, name)
    return calls


def test_parse_reaches_every_layer_through_its_module_binding(workspace, tmp_path, monkeypatch):
    # perfbench counts tokens and times layers by rebinding these functions
    # in every mfdep module; a parse that bypassed a binding would go uncounted
    from mfdep import decoder, kernels, scorer, tree

    calls = _count_calls(monkeypatch, [
        (scorer, "score_sentence"), (scorer, "encode"), (scorer, "score_edges"),
        (scorer, "score_siblings"), (scorer, "score_grandparents"), (scorer, "score_labels"),
        (decoder, "mfvi"), (kernels, "messages_forward"), (tree, "decode"),
    ])
    sentences = read_conllu_file(workspace["train"])
    assert run(["parse", "--model", workspace["model"], "--input", workspace["train"],
                "--output", str(tmp_path / "out.conllu")]) == 0
    # every sentence reaches the scorers and decode once, a batch of one
    # length at a time
    def each_once(seen):
        return sorted(seen, key=repr) == sorted(sentences, key=repr)

    assert each_once([args[0] for args in calls["score_sentence"]])
    # each length fits one batch, so encode runs once per length: each call
    # holds sentences of one length, and the calls together hold every input
    # sentence once
    batches = [args[0] for args in calls["encode"]]
    assert len(batches) == len({len(s) for s in sentences})
    assert all(len({len(s) for s in batch}) == 1 for batch in batches)
    assert each_once([s for batch in batches for s in batch])
    # the edge biaffine and decode run per sentence; the factor op and
    # the label op, on the batch's decoded heads, once per batch
    for name in ("score_sentence", "score_edges", "decode"):
        assert len(calls[name]) == len(sentences), name
    for name in ("score_siblings", "score_grandparents", "score_labels"):
        assert len(calls[name]) == len(batches), name
    # the label op follows its batch's last decode, over the (B, n) heads
    # of the batch that encode gave
    order = [name for name in calls["order"] if name in ("encode", "decode", "score_labels")]
    expect = [name for batch in batches for name in ["encode", *["decode"] * len(batch),
                                                     "score_labels"]]
    assert order == expect
    assert [args[1].shape for args in calls["score_labels"]] == [
        (len(batch), len(batch[0])) for batch in batches]
    # perfbench's set-up mark: the first score_sentence follows exactly one encode
    first = calls["order"].index("score_sentence")
    assert calls["order"][:first].count("encode") == 1
    # and mfvi runs once per batch, on a (B, k, k) stack of edge scores,
    # a batch of one too
    shapes = [args[0].s_edge.shape for args in calls["mfvi"]]
    assert len(shapes) == len(batches)
    assert all(len(shape) == 3 for shape in shapes)
    held = [shape[-1] for shape in shapes for _ in range(shape[0])]
    assert sorted(held) == sorted(len(s) + 1 for s in sentences)
    # the workspace model runs T = 2 iterations: two (q, sib, gp) calls per batch
    forward = [args[0].shape for args in calls["messages_forward"]]
    assert [len(args) for args in calls["messages_forward"]] == [3] * len(forward)
    assert forward == [shape for shape in shapes for _ in range(2)]


def test_parse_ends_set_up_at_the_first_batch_it_encodes(workspace, tmp_path, monkeypatch):
    # perfbench ends set-up at the first score_sentence call, and
    # tokens_per_s divides by the time after it: a parse encodes exactly
    # one batch before that call, and each batch's score_sentence calls
    # follow that batch's encode, its sentences in order, with no other
    # encode between them
    from mfdep import scorer

    calls = _count_calls(monkeypatch, [(scorer, "encode"), (scorer, "score_sentence")])
    assert run(["parse", "--model", workspace["model"], "--input", workspace["train"],
                "--output", str(tmp_path / "out.conllu")]) == 0
    order = calls["order"]
    assert order.index("score_sentence") == 1
    batches = iter(args[0] for args in calls["encode"])
    scored = iter(args[0] for args in calls["score_sentence"])
    expect = []
    for name in order:
        if name == "encode":
            expect += [("encode", None)] + [("score_sentence", s) for s in next(batches)]
    assert [(name, next(scored) if name == "score_sentence" else None)
            for name in order] == expect


def _train_two_batches(workspace, tmp_path):
    """Train on two batches of the whole workspace corpus, in corpus
    order, with one dev evaluation after the second; returns the corpus
    and the dev sentences."""
    dev_file = str(tmp_path / "dev.conllu")
    dev = read_conllu_file(TOY_TREEBANK)[6:8]
    write_conllu_file(dev_file, dev)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG.replace("max_iterations = 1", "max_iterations = 2")
                   + "eval_every = 2\nbatch_tokens = 10000\n", encoding="utf-8")
    assert run(["train", "--train", workspace["train"], "--dev", dev_file,
                "--config", str(cfg), "--model", str(tmp_path / "m.bin")]) == 0
    return read_conllu_file(workspace["train"]), dev


def test_train_reaches_every_layer_through_its_module_binding(workspace, tmp_path, monkeypatch):
    # the training counterpart: perfbench counts training tokens at
    # sentence_loss and the end of set-up at the first score_sentence
    from mfdep import scorer, trainer

    calls = _count_calls(monkeypatch, [
        (trainer, "sentence_loss"), (scorer, "score_sentence"), (scorer, "score_siblings"),
        (scorer, "score_grandparents"), (trainer, "adam_step"),
    ])
    corpus, dev = _train_two_batches(workspace, tmp_path)
    losses = [args[0] for args in calls["sentence_loss"]]
    assert losses == corpus * 2
    # one scoring pass per training sentence, then one per dev sentence;
    # each training sentence is a batch of one, and the two dev sentences
    # make one batch a length
    assert [args[0] for args in calls["score_sentence"]] == losses + dev
    for name in ("score_siblings", "score_grandparents"):
        assert len(calls[name]) == len(losses) + len({len(s) for s in dev}), name
    assert len(calls["adam_step"]) == 2


def test_train_runs_mfvi_on_each_sentence_as_a_stack_of_one(workspace, tmp_path, monkeypatch):
    # one shape, leading axis always: every MFVI call of a training
    # sentence gets its edge scores as a (1, n+1, n+1) stack, as a parse
    # batch of one does
    from mfdep import decoder, trainer

    calls = _count_calls(monkeypatch, [(trainer, "sentence_loss"), (decoder, "mfvi"),
                                       (trainer, "evaluate")])
    corpus, _ = _train_two_batches(workspace, tmp_path)
    losses = iter(args[0] for args in calls["sentence_loss"])
    mfvi_calls = iter(args[0] for args in calls["mfvi"])
    shapes, sentence = [], None
    for name in calls["order"]:
        if name == "evaluate":
            break
        if name == "sentence_loss":
            sentence = next(losses)
        elif name == "mfvi":
            shapes.append((next(mfvi_calls).s_edge.value.shape, len(sentence) + 1))
    assert len(shapes) == 2 * len(corpus)
    assert all(shape == (1, k, k) for shape, k in shapes), shapes


def test_train_ends_set_up_after_one_sentence_it_encodes(workspace, tmp_path, monkeypatch):
    # perfbench ends set-up at the first score_sentence call: training
    # encodes exactly one sentence before it, and each score_sentence
    # follows the encode of its sentence's batch (a training sentence's
    # batch of one, or a dev batch), as in a parse
    from mfdep import scorer

    calls = _count_calls(monkeypatch, [(scorer, "encode"), (scorer, "score_sentence")])
    corpus, dev = _train_two_batches(workspace, tmp_path)
    order = calls["order"]
    assert order.index("score_sentence") == 1
    assert calls["encode"][0][0] == [corpus[0]]
    batches = iter(args[0] for args in calls["encode"])
    scored = iter(args[0] for args in calls["score_sentence"])
    expect = []
    for name in order:
        if name == "encode":
            expect += [("encode", None)] + [("score_sentence", s) for s in next(batches)]
    assert [(name, next(scored) if name == "score_sentence" else None)
            for name in order] == expect
    assert len(calls["encode"]) == 2 * len(corpus) + len({len(s) for s in dev})


def test_every_function_perfbench_traces_resolves():
    # perfbench/worker.py rebinds each (module, function) of its TRACED
    # table by name; a rename in mfdep would break traced runs
    worker = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    tree = ast.parse(worker.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    entries = [(row.elts[0].id, row.elts[1].value) for row in table.elts]
    assert entries
    for module, name in entries:
        assert callable(getattr(importlib.import_module(f"mfdep.{module}"), name, None)), \
            (module, name)


def test_eval_text_output(workspace, capsys):
    assert run([
        "eval", "--gold", workspace["train"], "--pred", workspace["train"],
    ]) == 0
    out = capsys.readouterr().out
    assert "UAS 100.00" in out and "LAS 100.00" in out


def test_unknown_flag_exits_2_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["parse", "--frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["transmogrify"])
    assert exc.value.code == 2


def test_missing_file_exits_2(workspace, tmp_path):
    assert run([
        "parse", "--model", workspace["model"],
        "--input", str(tmp_path / "absent.conllu"),
        "--output", str(tmp_path / "out.conllu"),
    ]) == 2


@pytest.mark.parametrize("flag", ["--model", "--input", "--output"])
def test_parse_names_a_directory_given_as_a_file(flag, workspace, tmp_path, capsys):
    paths = {"--model": workspace["model"], "--input": workspace["train"],
             "--output": str(tmp_path / "out.conllu")}
    paths[flag] = str(tmp_path)
    argv = ["parse"] + [x for item in paths.items() for x in item]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("flag", ["--model", "--history"])
def test_train_names_a_directory_given_as_an_output(flag, workspace, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    argv = ["train", "--train", workspace["train"], "--config", str(cfg),
            "--model", str(tmp_path / "m.bin"), flag, str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("flag, target, reason", [
    ("--model", "", "Is a directory"),
    ("--history", "", "Is a directory"),
    ("--output", "", "Is a directory"),
    ("--csv", "", "Is a directory"),
    ("--model", "missing/m.bin", "No such file or directory"),
    ("--output", "missing/out.conllu", "No such file or directory"),
    ("--history", "file.txt/history.json", "Not a directory"),
])
def test_an_unwritable_output_exits_2_before_the_work_starts(flag, target, reason, workspace,
                                                             tmp_path, monkeypatch, capsys):
    # no input is read, no model loaded, nothing trained, parsed or timed,
    # and an output that exists is left as it was
    from mfdep import bench, conllu, trainer

    (tmp_path / "file.txt").write_text("kept\n", encoding="utf-8")
    model = tmp_path / "m.bin"
    model.write_bytes(b"kept")
    bad = str(tmp_path / target) if target else str(tmp_path)
    if flag == "--output":
        argv = ["parse", "--model", workspace["model"], "--input", workspace["train"],
                "--output", bad]
    elif flag == "--csv":
        argv = ["bench", "--lengths", "3", "--repeats", "1", "--csv", bad]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
        argv = ["train", "--train", workspace["train"], "--config", str(cfg),
                "--model", str(model), flag, bad]
    calls = _count_calls(monkeypatch, [
        (conllu, "read_conllu_file"), (trainer, "load_model"), (trainer, "train"),
        (trainer, "parse_sentences"), (bench, "benchmark"),
    ])
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    assert calls == {}
    assert model.read_bytes() == b"kept"
    assert (tmp_path / "file.txt").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("flag", ["--input", "--config", "--embeddings"])
def test_a_file_that_is_not_utf8_exits_1_naming_it(flag, workspace, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("# caf\u00e9 = 1\n".encode("latin-1"))
    if flag == "--input":
        argv = ["parse", "--model", workspace["model"], "--input", str(bad),
                "--output", str(tmp_path / "out.conllu")]
    else:
        argv = ["train", "--train", workspace["train"], "--model", str(tmp_path / "m.bin"),
                flag, str(bad)]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (invalid continuation byte: byte 0xe9)\n")


BOM = "\ufeff"  # UTF-8 byte-order mark, as some editors write it


def test_parse_reads_an_input_that_starts_with_a_byte_order_mark(workspace, tmp_path):
    bom = tmp_path / "bom.conllu"
    bom.write_text(BOM + Path(workspace["train"]).read_text(encoding="utf-8"), encoding="utf-8")
    outputs = []
    for source in (workspace["train"], str(bom)):
        outputs.append(tmp_path / f"out{len(outputs)}.conllu")
        assert run(["parse", "--model", workspace["model"], "--input", source,
                    "--output", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_train_reads_a_config_file_that_starts_with_a_byte_order_mark(workspace, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BOM + TINY_RUN_CFG, encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--model", str(model)]) == 0
    assert load_model(str(model)).config.d_hidden == TINY_DIMS["d_hidden"]


def test_train_reads_embeddings_that_start_with_a_byte_order_mark(workspace, tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setenv("MFDEP_LOG", "1")
    emb = tmp_path / "vectors.txt"
    emb.write_text(BOM + "the 1 2 3 4\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    assert run(["train", "--train", workspace["train"], "--config", str(cfg),
                "--embeddings", str(emb), "--model", str(tmp_path / "m.bin")]) == 0
    assert f"loaded 1 word vectors from {emb}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_a_conllu_format_error_names_its_file(command, workspace, tmp_path, capsys):
    bad = tmp_path / "nine.conllu"
    bad.write_text("1\tw\tw\tX\tX\t_\t0\troot\t_\n\n", encoding="utf-8")
    if command == "eval":
        argv = ["eval", "--gold", workspace["train"], "--pred", str(bad)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
        argv = ["train", "--train", workspace["train"], "--dev", str(bad), "--config", str(cfg),
                "--model", str(tmp_path / "m.bin")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 1: expected 10 columns, got 9\n"


def _tiny_train(tmp_path, train):
    # a run that should have been refused ends quickly
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_RUN_CFG, encoding="utf-8")
    return ["train", "--train", str(train), "--config", str(cfg)]


def _history_is_the_model(workspace, tmp_path):
    # the model path given twice, once relative: the file does not exist yet
    return (_tiny_train(tmp_path, workspace["train"])
            + ["--model", "m.bin", "--history", str(tmp_path / "m.bin")],
            f"error: {tmp_path / 'm.bin'}: --history names the same file as --model\n")


def _output_is_the_model(workspace, tmp_path):
    # a link to the checkpoint: both files exist
    model = tmp_path / "m.bin"
    model.write_bytes(Path(workspace["model"]).read_bytes())
    (tmp_path / "link.conllu").symlink_to(model)
    return (["parse", "--model", str(model), "--input", workspace["train"],
             "--output", "link.conllu"],
            "error: link.conllu: --output names the same file as --model\n")


def _model_is_the_corpus(workspace, tmp_path):
    corpus = tmp_path / "t.conllu"
    corpus.write_bytes(Path(workspace["train"]).read_bytes())
    return (_tiny_train(tmp_path, corpus) + ["--model", str(corpus)],
            f"error: {corpus}: --model names the same file as --train\n")


@pytest.mark.parametrize("case", [_history_is_the_model, _output_is_the_model,
                                  _model_is_the_corpus])
def test_an_output_that_names_an_input_or_another_output_exits_2_before_the_work_starts(
        case, workspace, tmp_path, monkeypatch, capsys):
    from mfdep import conllu, trainer

    monkeypatch.chdir(tmp_path)
    argv, message = case(workspace, tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    calls = _count_calls(monkeypatch, [
        (conllu, "read_conllu_file"), (trainer, "load_model"), (trainer, "train"),
        (trainer, "parse_sentences"),
    ])
    assert run(argv) == 2
    assert capsys.readouterr().err == message
    assert calls == {}
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", [["parse", "--model", "m", "--input", "i", "--output", "o"],
                                     ["train", "--train", "t", "--model", "m"],
                                     ["oracle-check"]])
def test_a_negative_iterations_flag_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--iterations", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "--iterations: expected an integer >= 0, not '-1'" in err


@pytest.mark.parametrize("command", [["train", "--train", "t", "--model", "m"],
                                     ["bench"], ["oracle-check"]])
def test_a_negative_seed_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "--seed: expected an integer >= 0, not '-1'" in err


def test_eval_names_the_files_and_counts_of_a_sentence_count_mismatch(workspace, tmp_path,
                                                                      capsys):
    pred = tmp_path / "pred.conllu"
    write_conllu_file(str(pred), read_conllu_file(workspace["train"])[:5])
    assert run(["eval", "--gold", workspace["train"], "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pred} has 5 sentences, {workspace['train']} has 6\n")


def test_eval_names_the_sentence_and_lengths_of_a_word_count_mismatch(workspace, tmp_path,
                                                                      capsys):
    gold = read_conllu_file(workspace["train"])
    other = next(s for s in read_conllu_file(TOY_TREEBANK) if len(s) != len(gold[2]))
    pred = tmp_path / "pred.conllu"
    write_conllu_file(str(pred), gold[:2] + [other] + gold[3:])
    assert run(["eval", "--gold", workspace["train"], "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == (
        f"error: sentence 3 (sent_id {gold[2].sentence_id}): {pred} has {len(other)} words, "
        f"{workspace['train']} has {len(gold[2])}\n")


def test_corrupt_model_exits_1(tmp_path, workspace):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run([
        "parse", "--model", str(bad), "--input", workspace["train"],
        "--output", str(tmp_path / "out.conllu"),
    ]) == 1


def _with_tensor_of_wrong_shape(model, bad):
    params = load_model(model)
    params.tensors["W_sib"] = np.zeros((1, 2, 4))
    save_model(params, bad)


def _dense_version_1(model, bad):
    # the checkpoint format before the trilinear weights were factored
    params = load_model(model)
    d = params.config.d_bin
    params.tensors.update(W_sib=np.zeros((d, d, d)), W_gp=np.zeros((d, d, d)))
    save_model(params, bad)
    data = bytearray(Path(bad).read_bytes())
    struct.pack_into("<I", data, 4, 1)
    Path(bad).write_bytes(data)


def _with_header(hbytes):
    """A maker of a version-2 checkpoint whose header is hbytes."""
    def make_bad(model, bad):
        Path(bad).write_bytes(b"MFD1" + struct.pack("<II", 2, len(hbytes)) + hbytes)
    return make_bad


def _version_3(model, bad):
    data = bytearray(Path(model).read_bytes())
    struct.pack_into("<I", data, 4, 3)
    Path(bad).write_bytes(data)


@pytest.mark.parametrize(
    "make_bad,message",
    [
        (_dense_version_1, "checkpoint version 1 holds the dense d_bin^3 trilinear weights "
                           "W_sib and W_gp, which are now factored at rank d_bin; "
                           "the model must be retrained"),
        (lambda model, bad: Path(bad).write_text("this is no model file\n"),
         "not a model checkpoint (bad magic)"),
        (lambda model, bad: Path(bad).write_bytes(Path(model).read_bytes()[:10]),
         "checkpoint truncated: 10 bytes, header needs 12"),
        (lambda model, bad: Path(bad).write_bytes(Path(model).read_bytes() + b"\0"),
         "checkpoint size mismatch: header implies"),
        (_with_tensor_of_wrong_shape, "checkpoint tensor 'W_sib' has shape (1, 2, 4)"),
        (_version_3, "unsupported checkpoint version 3"),
        (_with_header(b"[1, 2]"), "checkpoint header is not a JSON object"),
        (_with_header(b'{"config": "\xff"}'), "checkpoint header is no valid UTF-8 JSON"),
    ],
)
def test_unreadable_checkpoint_exits_1_naming_the_file(make_bad, message, workspace, tmp_path,
                                                       capsys):
    bad = str(tmp_path / "notmodel.bin")
    make_bad(workspace["model"], bad)
    assert run([
        "parse", "--model", bad, "--input", workspace["train"],
        "--output", str(tmp_path / "out.conllu"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}"), err


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda t: t.pop("W_sib"), "lacks tensor 'W_sib'"),
        (lambda t: t.update(W_sib=np.zeros((1, 2, 4))), "tensor 'W_sib' has shape (1, 2, 4)"),
        # a NaN or an infinity would parse to "no feasible head for node 1"
        (lambda t: t["U_edge"].__setitem__((0, 1), np.nan),
         "checkpoint tensor 'U_edge' holds a value that is not a finite number"),
        (lambda t: t["emb_word"].fill(np.inf),
         "checkpoint tensor 'emb_word' holds a value that is not a finite number"),
        (lambda t: t["W_gp"].__setitem__((2, 0, 0), -np.inf),
         "checkpoint tensor 'W_gp' holds a value that is not a finite number"),
    ],
)
def test_mismatched_checkpoint_exits_1_naming_the_tensor(edit, message, workspace, tmp_path, capsys):
    w2i, p2i, labels = build_vocabs(read_conllu_file(workspace["train"]))
    params = init_params(ModelConfig(**TINY_DIMS), w2i, p2i, labels, seed=0)
    edit(params.tensors)
    model = str(tmp_path / "model.bin")
    save_model(params, model)
    assert run([
        "parse", "--model", model, "--input", workspace["train"],
        "--output", str(tmp_path / "out.conllu"),
    ]) == 1
    assert message in capsys.readouterr().err


def _edit_header(src, dst, edit):
    """Copy the checkpoint src to dst with edit applied to its JSON header."""
    data = src.read_bytes()
    hlen = struct.unpack_from("<I", data, 8)[0]
    header = json.loads(data[12:12 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode("utf-8")
    dst.write_bytes(data[:8] + struct.pack("<I", len(hbytes)) + hbytes + data[12 + hlen:])


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda h: h["config"].update(foo=1), "checkpoint config: unknown key 'foo'"),
        (lambda h: h["config"].update(d_word="4"),
         "checkpoint config: d_word must be an integer, not '4'"),
        (lambda h: h["config"].update(p_drop_bin=False),
         "checkpoint config: p_drop_bin must be a number, not False"),
        (lambda h: h.update(config=[1]), "checkpoint header 'config' must be an object"),
        (lambda h: h.pop("word2id"), "checkpoint header lacks 'word2id'"),
        (lambda h: h["tensors"].__setitem__(0, ["x"]),
         "checkpoint header 'tensors' entry ['x'] is no [name, shape] pair"),
        (lambda h: h["tensors"].__setitem__(0, ["W", [2.0]]),
         "checkpoint header 'tensors' entry ['W', [2.0]] is no [name, shape] pair"),
        (lambda h: h["word2id"].update({list(h["word2id"])[-1]: len(h["word2id"])}),
         "checkpoint header 'word2id' ids must be the integers 0.."),
        (lambda h: h["word2id"].update({list(h["word2id"])[-1]: -1}),
         "checkpoint header 'word2id' ids must be the integers 0.."),
        (lambda h: h.update(word2id={"<root>": 0}),
         "checkpoint header 'word2id' must give '<unk>' the id 1"),
        (lambda h: h["word2id"].update({"<root>": 1, "<unk>": 0}),
         "checkpoint header 'word2id' must give '<root>' the id 0"),
        (lambda h: h["pos2id"].update({"<unk>": len(h["pos2id"]) - 1, list(h["pos2id"])[-1]: 1}),
         "checkpoint header 'pos2id' must give '<unk>' the id 1"),
        (lambda h: h.update(labels=list(range(len(h["labels"])))),
         "checkpoint header 'labels' must be distinct strings, at least one"),
        (lambda h: h.update(labels=[]),
         "checkpoint header 'labels' must be distinct strings, at least one"),
    ],
    ids=["unknown-key", "string-for-int", "bool-for-float", "config-not-object", "no-word2id",
         "tensor-not-a-pair", "float-dimension", "word-id-past-the-vocabulary",
         "negative-word-id", "no-unknown-word", "swapped-special-words", "moved-unknown-tag",
         "integer-labels", "no-labels"],
)
def test_parse_names_the_file_and_key_of_a_malformed_checkpoint_header(
    edit, message, workspace, tmp_path, capsys
):
    bad = tmp_path / "bad.bin"
    _edit_header(Path(workspace["model"]), bad, edit)
    assert run(["parse", "--model", str(bad), "--input", workspace["train"],
                "--output", str(tmp_path / "out.conllu")]) == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err


def test_parse_logs_the_mst_fallbacks_of_its_trees(workspace, tmp_path, capsys, monkeypatch):
    # a random checkpoint: its argmax heads are rarely a single-root tree
    sentences = read_conllu_file(workspace["train"])
    w2i, p2i, labels = build_vocabs(sentences)
    params = init_params(ModelConfig(**TINY_DIMS), w2i, p2i, labels, seed=0)
    model = str(tmp_path / "random.bin")
    save_model(params, model)
    fallbacks = sum(t.mst for t in parse_sentences(params, sentences))
    assert 0 < fallbacks < len(sentences)
    monkeypatch.setenv("MFDEP_LOG", "1")
    assert run(["parse", "--model", model, "--input", workspace["train"],
                "--output", str(tmp_path / "out.conllu")]) == 0
    err = capsys.readouterr().err
    assert err == f"parsed {len(sentences)} sentences ({fallbacks} MST fallbacks)\n"


@pytest.mark.parametrize("text", ["", COMMENT_BLOCK], ids=["empty", "comment-only"])
def test_train_names_a_training_file_with_no_words(text, tmp_path, capsys):
    train_file = tmp_path / "train.conllu"
    train_file.write_text(text, encoding="utf-8")
    model = tmp_path / "m.bin"
    assert run(["train", "--train", str(train_file), "--model", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {train_file}: training file has no words\n"
    assert not model.exists()


def test_bench_subcommand(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert run([
        "bench", "--lengths", "4", "6", "--repeats", "3", "--csv", str(csv),
    ]) == 0
    out = capsys.readouterr().out
    assert "sents/s" in out
    assert csv.read_text().startswith("variant,n,")


@pytest.mark.parametrize(
    "argv",
    [["bench", "--repeats", "0"], ["bench", "--lengths", "0"],
     ["bench", "--lengths", "4", "-2"], ["oracle-check", "--instances", "0"]],
)
def test_bench_and_oracle_check_reject_a_count_below_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_oracle_check_subcommand(capsys):
    assert run(["oracle-check", "--instances", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "MST vs brute force mismatches: 0/5" in out


def test_bench_refuses_a_repeated_length(capsys):
    assert run(["bench", "--lengths", "5", "3", "5", "--repeats", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bench lengths repeat 5\n"

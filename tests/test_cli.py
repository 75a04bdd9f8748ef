import json

import numpy as np
import pytest

from conftest import TOY_TREEBANK
import mfdep.decoder
from mfdep.cli import run
from mfdep.conllu import read_conllu_file, write_conllu_file
from mfdep.scorer import ModelConfig, build_vocabs, init_params, load_embeddings
from mfdep.trainer import TrainConfig, evaluate, load_model, save_model, train

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


@pytest.mark.parametrize("scale", ["0", "-2"])
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
        ("adam_beta1 = nan", "adam_beta1 must lie in [0, 1)"),
        ("adam_beta2 = 2", "adam_beta2 must lie in [0, 1)"),
        ("adam_eps = 0", "adam_eps must be > 0"),
        ("decay_rate = 0", "decay_rate must lie in (0, 1]"),
        ("batch_tokens = -5", "batch_tokens must be >= 1"),
        ("iterations = -1", "iterations must be >= 0"),
        ("max_train_len = 0", "max_train_len must be >= 1"),
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


def test_parse_reaches_every_layer_through_its_module_binding(workspace, tmp_path, monkeypatch):
    # perfbench counts tokens and times layers by rebinding these functions
    # in every mfdep module; a parse that bypassed a binding would go uncounted
    import sys

    from mfdep import decoder, kernels, scorer, tree

    calls = {}

    def rebind(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "mfdep" or modname.startswith("mfdep.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)

    for module, name in [
        (scorer, "score_sentence"), (scorer, "encode"), (scorer, "score_edges"),
        (scorer, "score_siblings"), (scorer, "score_grandparents"), (scorer, "score_labels"),
        (decoder, "mfvi"), (kernels, "messages_forward"), (tree, "decode"),
    ]:
        rebind(module, name)
    sentences = read_conllu_file(workspace["train"])
    assert run(["parse", "--model", workspace["model"], "--input", workspace["train"],
                "--output", str(tmp_path / "out.conllu")]) == 0
    assert [args[0] for args in calls["score_sentence"]] == sentences
    for name in ("encode", "score_edges", "score_siblings", "score_grandparents",
                 "score_labels", "mfvi", "decode"):
        assert len(calls[name]) == len(sentences), name
    # the workspace model runs T = 2 iterations: two (q, sib, gp) calls per sentence
    sizes = [len(s) + 1 for s in sentences for _ in range(2)]
    assert [len(args) for args in calls["messages_forward"]] == [3] * len(sizes)
    assert [args[0].shape for args in calls["messages_forward"]] == [(k, k) for k in sizes]


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


def test_corrupt_model_exits_1(tmp_path, workspace):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run([
        "parse", "--model", str(bad), "--input", workspace["train"],
        "--output", str(tmp_path / "out.conllu"),
    ]) == 1


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda t: t.pop("W_sib"), "lacks tensor 'W_sib'"),
        (lambda t: t.update(W_sib=np.zeros((1, 2, 4))), "tensor 'W_sib' has shape (1, 2, 4)"),
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

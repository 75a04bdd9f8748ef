import json

import pytest

from conftest import TOY_TREEBANK
import mfdep.decoder
from mfdep.cli import run
from mfdep.conllu import read_conllu_file, write_conllu_file
from mfdep.scorer import ModelConfig, build_vocabs, init_params
from mfdep.trainer import save_model


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


def test_bench_subcommand(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert run([
        "bench", "--lengths", "4", "6", "--repeats", "3", "--csv", str(csv),
    ]) == 0
    out = capsys.readouterr().out
    assert "sents/s" in out
    assert csv.read_text().startswith("variant,backend,n,")


def test_oracle_check_subcommand(capsys):
    assert run(["oracle-check", "--instances", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "MST vs brute force mismatches: 0/5" in out

"""Seeded fixture builder for the perfbench workloads.

Everything a workload reads is made here, before any timing starts:
generated CoNLL-U corpora, the checkpoints and the training config. The
same seed gives byte-identical files, and ``digests`` reports their
SHA-256 so a run can record what it measured.

    python3 perfbench/fixtures.py --workload parse-long --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOY50 = os.path.join(SRC, "mfdep", "data", "toy50.conllu")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from mfdep.conllu import read_conllu_file  # noqa: E402
from mfdep.scorer import ModelConfig, build_vocabs, init_params  # noqa: E402
from mfdep.trainer import TrainConfig, save_model, train  # noqa: E402

WORKLOADS = ("parse-long", "parse-short", "train-step")

# Every seed gets the same sentence lengths in the same order and the same
# model weights, so the cubic work per run is the same; the seed draws the
# words, tags and gold trees. The order is fixed because it moves peak
# memory (the allocator reuses freed blocks of earlier sentences), and the
# weights because the single-root CLE fallback on a random model costs up
# to a fifth more or less from one initialisation to the next.
PARSE_LONG_LENGTHS = [20, 28, 36, 44, 52, 60]
TRAIN_LENGTHS = [10, 16, 22, 28, 34, 40]
DEV_LENGTHS = [8, 12]
INIT_SEED = 1
# toy50 is parsed several times over per command, each copy in its own
# seeded order, so per-sentence fixed costs outweigh process start-up.
PARSE_SHORT_COPIES = 16

# Dimensions of acceptance criterion 5; the short-sentence model is trained
# with a fixed seed so that its accuracy is the same for every run.
SHORT_DIMS = dict(d_word=24, d_pos=8, d_hidden=24, d_edge=32, d_label=16, d_bin=12)
SHORT_TRAIN = dict(variant="single2o", max_iterations=60, eval_every=60,
                   batch_tokens=50, seed=3)


def _toy50():
    return read_conllu_file(TOY50)


def _random_tree(n, rng):
    """Heads of a uniformly grown random tree with exactly one root child."""
    order = rng.permutation(n) + 1
    heads = [0] * (n + 1)
    placed = [int(order[0])]
    for j in order[1:]:
        heads[int(j)] = placed[int(rng.integers(len(placed)))]
        placed.append(int(j))
    return heads[1:]


def _generated_conllu(lengths, rng, prefix):
    """CoNLL-U text whose words, tags and labels are drawn from toy50."""
    pool = [t for s in _toy50() for t in s.tokens]
    labels = sorted({t.gold_label for t in pool} - {"root"})
    out = []
    for k, n in enumerate(lengths):
        heads = _random_tree(n, rng)
        out.append(f"# sent_id = {prefix}-{k + 1:03d}")
        for j in range(n):
            tok = pool[int(rng.integers(len(pool)))]
            label = "root" if heads[j] == 0 else labels[int(rng.integers(len(labels)))]
            out.append("\t".join([str(j + 1), tok.form, tok.lemma, tok.upos, tok.xpos,
                                  "_", str(heads[j]), label, "_", "_"]))
        out.append("")
    return "\n".join(out) + "\n"


def _toy50_shuffled(rng):
    with open(TOY50, encoding="utf-8") as f:
        blocks = f.read().strip("\n").split("\n\n")
    out = []
    for _ in range(PARSE_SHORT_COPIES):
        out.extend(blocks[i] for i in rng.permutation(len(blocks)))
    return "\n\n".join(out) + "\n\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def build(workload, seed, out_dir):
    """Write the fixtures of one workload into out_dir; returns their paths."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    paths = {}
    if workload == "parse-long":
        paths["input"] = os.path.join(out_dir, "input.conllu")
        _write(paths["input"], _generated_conllu(PARSE_LONG_LENGTHS, rng, "long"))
        w2i, p2i, labels = build_vocabs(_toy50())
        params = init_params(ModelConfig.for_variant("local2o"), w2i, p2i, labels,
                             seed=INIT_SEED)
        paths["model"] = os.path.join(out_dir, "model.bin")
        save_model(params, paths["model"])
    elif workload == "parse-short":
        paths["input"] = os.path.join(out_dir, "input.conllu")
        _write(paths["input"], _toy50_shuffled(rng))
        corpus = _toy50()
        result = train(corpus, corpus, TrainConfig(**SHORT_TRAIN),
                       model_config=ModelConfig.for_variant("single2o", **SHORT_DIMS))
        paths["model"] = os.path.join(out_dir, "model.bin")
        save_model(result.params, paths["model"])
    else:
        paths["train"] = os.path.join(out_dir, "train.conllu")
        _write(paths["train"], _generated_conllu(TRAIN_LENGTHS, rng, "train"))
        paths["dev"] = os.path.join(out_dir, "dev.conllu")
        _write(paths["dev"], _generated_conllu(DEV_LENGTHS, rng, "dev"))
        # batch_tokens = 1 puts one sentence in each batch, so the iteration
        # count covers the corpus exactly once; the only dev evaluation is the
        # one train() makes at the last iteration. The training seed, which
        # sets the batch order and the initial weights, is fixed as above.
        paths["config"] = os.path.join(out_dir, "train.cfg")
        _write(paths["config"], f"max_iterations = {len(TRAIN_LENGTHS)}\nbatch_tokens = 1\n"
                                f"eval_every = {10 * len(TRAIN_LENGTHS)}\nseed = {INIT_SEED}\n")
    return paths


def digests(paths):
    out = {}
    for key, path in sorted(paths.items()):
        with open(path, "rb") as f:
            out[key] = hashlib.sha256(f.read()).hexdigest()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, metavar="DIR")
    args = ap.parse_args(argv)
    paths = build(args.workload, args.seed, args.out)
    print(json.dumps({"paths": paths, "sha256": digests(paths)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: train / parse / eval / bench / oracle-check."""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

VARIANTS = ("local1o", "single1o", "local2o", "single2o")


def _log(msg):
    if os.environ.get("MFDEP_LOG", "1") not in ("0", ""):
        print(msg, file=sys.stderr)


def _build_parser():
    p = argparse.ArgumentParser(prog="mfdep", description="Second-order graph-based dependency parser")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, variant="local2o"):
        sp.add_argument("--variant", choices=VARIANTS, default=variant)
        sp.add_argument("--iterations", type=int, default=None, help="MFVI iterations T")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--single-root", choices=("on", "off"), default="on")

    tr = sub.add_parser("train", help="train a model")
    common(tr)
    tr.add_argument("--train", required=True, metavar="FILE")
    tr.add_argument("--dev", metavar="FILE")
    tr.add_argument("--model", required=True, metavar="FILE")
    tr.add_argument("--config", metavar="FILE", help="key = value overrides")
    tr.add_argument("--lambda", dest="lam", type=float, default=None)
    tr.add_argument("--scale", type=float, default=1.0)
    tr.add_argument("--embeddings", metavar="FILE", help="plain-text word vectors")
    tr.add_argument("--history", metavar="FILE", help="write training history JSON")

    pa = sub.add_parser("parse", help="parse a CoNLL-U file with a trained model")
    common(pa, variant=None)  # default: the checkpoint's variant
    pa.add_argument("--model", required=True, metavar="FILE")
    pa.add_argument("--input", required=True, metavar="FILE")
    pa.add_argument("--output", required=True, metavar="FILE")

    ev = sub.add_parser("eval", help="score predictions against gold")
    ev.add_argument("--gold", required=True, metavar="FILE")
    ev.add_argument("--pred", required=True, metavar="FILE")
    ev.add_argument("--punct", choices=("upos-punct", "ptb-pos-set", "none"), default="upos-punct")
    ev.add_argument("--json", action="store_true", help="machine-readable output")

    be = sub.add_parser("bench", help="decoder throughput benchmark")
    be.add_argument("--lengths", type=int, nargs="+", default=[10, 20, 40])
    be.add_argument("--repeats", type=int, default=5)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--csv", metavar="FILE", help="also write CSV")

    oc = sub.add_parser("oracle-check", help="decoder/MST deviation tables vs brute force")
    oc.add_argument("--seed", type=int, default=0)
    oc.add_argument("--instances", type=int, default=50)
    oc.add_argument("--iterations", type=int, default=3)

    return p


def _cmd_train(args):
    from .conllu import read_conllu_file
    from .scorer import load_embeddings
    from .trainer import TrainConfig, parse_config_file, save_model, train

    corpus = read_conllu_file(args.train)
    dev = read_conllu_file(args.dev) if args.dev else corpus
    overrides = parse_config_file(args.config) if args.config else {}
    cfg_kwargs = dict(variant=args.variant, seed=args.seed, scale=args.scale,
                      single_root=args.single_root == "on")
    if args.lam is not None:
        cfg_kwargs["lam"] = args.lam
    if args.iterations is not None:
        cfg_kwargs["iterations"] = args.iterations
    model_keys = {"d_word", "d_pos", "d_hidden", "d_edge", "d_label", "d_bin"}
    model_overrides = {k: v for k, v in overrides.items() if k in model_keys}
    cfg_kwargs.update({k: v for k, v in overrides.items() if k not in model_keys})
    config = TrainConfig(**cfg_kwargs)

    model_config = None
    if model_overrides:
        from .scorer import ModelConfig

        model_config = ModelConfig.for_variant(args.variant, **model_overrides)
    result = train(corpus, dev, config, model_config=model_config, log=_log)
    if args.embeddings:
        load_embeddings(args.embeddings, result.params)
    save_model(result.params, args.model)
    if args.history:
        with open(args.history, "w", encoding="utf-8") as f:
            json.dump(result.history, f, indent=1)
    _log(f"trained {result.iterations_run} iterations, best dev {result.best_dev:.2f}")
    return 0


def _cmd_parse(args):
    from . import autodiff as ad
    from .conllu import read_conllu_file, write_conllu_file
    from .decoder import mfvi
    from .scorer import label_distribution, score_sentence
    from .tree import DecodeConfig, DecodeStats, decode
    from .trainer import load_model

    params = load_model(args.model)
    variant, iterations = args.variant, args.iterations
    if variant is None:
        variant = params.config.variant
    if iterations is None and variant == params.config.variant:
        iterations = params.config.iterations
    sentences = read_conllu_file(args.input)
    cfg = DecodeConfig(single_root=args.single_root == "on")
    stats = DecodeStats()
    predicted = []
    for sent in sentences:
        tape = ad.Tape()
        scores = score_sentence(sent, params, tape)
        post = mfvi(scores, variant, iterations)
        p_label = label_distribution(scores.s_label)
        t = decode(post, p_label, cfg, stats)
        predicted.append((t.heads.tolist(), [params.labels[i] for i in t.labels]))
    write_conllu_file(args.output, sentences, predicted)
    _log(f"parsed {stats.sentences} sentences ({stats.mst_calls} MST fallbacks)")
    return 0


def _cmd_eval(args):
    from .conllu import read_conllu_file
    from .evaluator import uas_las

    gold = read_conllu_file(args.gold)
    pred = read_conllu_file(args.pred)
    pairs = [(s.gold_heads, s.gold_labels) for s in pred]
    uas, las, counts = uas_las(pairs, gold, args.punct)
    if args.json:
        print(json.dumps({
            "uas": uas, "las": las, "scored": counts.scored,
            "correct_heads": counts.correct_heads,
            "correct_labeled": counts.correct_labeled,
            "skipped_punct": counts.skipped_punct, "punct_mode": args.punct,
        }))
    else:
        print(f"UAS {uas:.2f}  LAS {las:.2f}  ({counts.scored} tokens scored, "
              f"{counts.skipped_punct} punctuation skipped)")
    return 0


def _cmd_bench(args):
    from .bench import benchmark, format_csv, format_table

    rows, slopes = benchmark(lengths=args.lengths, repeats=args.repeats, seed=args.seed)
    print(format_table(rows, slopes), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(format_csv(rows))
    return 0


def _cmd_oracle_check(args):
    from .bench import random_scores
    from .decoder import mfvi_local, mfvi_single
    from .oracle import best_arborescence_bruteforce, exact_marginals_local, exact_marginals_single
    from .tree import chu_liu_edmonds, tree_weight

    rng = np.random.default_rng(args.seed)
    dev_local, dev_single = [], []
    for _ in range(args.instances):
        sc = random_scores(4, rng)
        q = mfvi_local(sc, args.iterations).head_probs()
        dev_local.append(np.abs(q - exact_marginals_local(sc)).max())
        sc3 = random_scores(3, rng)
        q = np.asarray(mfvi_single(sc3, args.iterations).final.value)
        dev_single.append(np.abs(q - exact_marginals_single(sc3)).mean())
    mst_fail = 0
    for _ in range(args.instances):
        w = rng.normal(0, 1, (5, 5))
        heads = chu_liu_edmonds(w, single_root=True)
        best, total = best_arborescence_bruteforce(w, single_root=True)
        if abs(tree_weight(w, heads) - total) > 1e-9:
            mst_fail += 1
    print(f"{'check':<28}{'mean':>10}{'max':>10}")
    print(f"{'local marginals Linf (n=4)':<28}{np.mean(dev_local):>10.5f}{np.max(dev_local):>10.5f}")
    print(f"{'single marginals mean (n=3)':<28}{np.mean(dev_single):>10.5f}{np.max(dev_single):>10.5f}")
    print(f"MST vs brute force mismatches: {mst_fail}/{args.instances}")
    return 0 if mst_fail == 0 else 1


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "parse": _cmd_parse,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
        "oracle-check": _cmd_oracle_check,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

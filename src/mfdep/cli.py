"""Command-line entry point: train / parse / eval / bench / oracle-check."""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from .evaluator import PUNCT_MODES
from .scorer import VARIANTS


def _log(msg):
    if os.environ.get("MFDEP_LOG", "1") not in ("0", ""):
        print(msg, file=sys.stderr)


def _at_least(low):
    """argparse type of an integer >= low."""
    def parse(text):
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, not {text!r}")
        return int(text)
    return parse


def _check_output(path):
    """Raise the OSError that writing ``path`` would meet when it is a
    directory or its directory is missing, before any work is done;
    nothing is created or truncated."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _same_file(a, b):
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(outputs, inputs=None):
    """``_check_output`` of each path of ``outputs``, {option: path}, and
    an OSError naming an output that is also an input (of ``inputs``,
    likewise) or an earlier output: writing it would destroy a file the
    command reads or writes. Options not given (None) are skipped."""
    seen = [(opt, path) for opt, path in (inputs or {}).items() if path is not None]
    for opt, path in outputs.items():
        if path is None:
            continue
        _check_output(path)
        for other, prior in seen:
            if _same_file(path, prior):
                raise OSError(f"{path}: {opt} names the same file as {other}")
        seen.append((opt, path))


def _build_parser():
    p = argparse.ArgumentParser(prog="mfdep", description="Second-order graph-based dependency parser")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, variant="local2o"):
        sp.add_argument("--variant", choices=VARIANTS, default=variant)
        sp.add_argument("--iterations", type=_at_least(0), default=None,
                        help="MFVI iterations T")
        sp.add_argument("--single-root", choices=("on", "off"), default="on")

    tr = sub.add_parser("train", help="train a model")
    common(tr)
    tr.add_argument("--train", required=True, metavar="FILE")
    tr.add_argument("--dev", metavar="FILE")
    tr.add_argument("--model", required=True, metavar="FILE")
    tr.add_argument("--seed", type=_at_least(0), default=0)
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
    ev.add_argument("--punct", choices=PUNCT_MODES, default="upos-punct")
    ev.add_argument("--json", action="store_true", help="machine-readable output")

    be = sub.add_parser("bench", help="decoder throughput benchmark")
    be.add_argument("--lengths", type=_at_least(1), nargs="+", default=[10, 20, 40])
    be.add_argument("--repeats", type=_at_least(1), default=5)
    be.add_argument("--seed", type=_at_least(0), default=0)
    be.add_argument("--csv", metavar="FILE", help="also write CSV")

    oc = sub.add_parser("oracle-check", help="decoder/MST deviation tables vs brute force")
    oc.add_argument("--seed", type=_at_least(0), default=0)
    oc.add_argument("--instances", type=_at_least(1), default=50)
    oc.add_argument("--iterations", type=_at_least(0), default=None, help="MFVI iterations T")

    return p


def _cmd_train(args):
    from .conllu import read_conllu_file, require_annotated
    from .scorer import ModelConfig, load_embeddings
    from .trainer import (MODEL_DIMS, TrainConfig, initial_params, parse_config_file,
                          save_model, train)

    _check_outputs({"--model": args.model, "--history": args.history},
                   {"--train": args.train, "--dev": args.dev, "--config": args.config,
                    "--embeddings": args.embeddings})
    corpus = read_conllu_file(args.train)
    if not any(len(s) for s in corpus):
        raise ValueError(f"{args.train}: training file has no words")
    require_annotated(corpus, args.train)
    dev = corpus
    if args.dev:
        dev = read_conllu_file(args.dev)
        if not dev:
            raise ValueError(f"{args.dev}: dev file has no sentences")
        require_annotated(dev, args.dev)
    cfg_kwargs = dict(variant=args.variant, lam=args.lam, iterations=args.iterations,
                      seed=args.seed, scale=args.scale, single_root=args.single_root == "on")
    if args.config:
        cfg_kwargs.update(parse_config_file(args.config))
    dims = {k: cfg_kwargs.pop(k) for k in MODEL_DIMS if k in cfg_kwargs}
    config = TrainConfig(**cfg_kwargs)
    params = initial_params(corpus, config, ModelConfig(variant=config.variant, **dims))
    if args.embeddings:
        _log(f"loaded {load_embeddings(args.embeddings, params)} word vectors "
             f"from {args.embeddings}")
    result = train(corpus, dev, config, params=params, log=_log)
    save_model(result.params, args.model)
    if args.history:
        with open(args.history, "w", encoding="utf-8") as f:
            json.dump(result.history, f, indent=1)
    _log(f"trained {result.iterations_run} iterations, best dev {result.best_dev:.2f}")
    return 0


def _cmd_parse(args):
    from .conllu import read_conllu_file, write_conllu_file
    from .trainer import load_model, parse_sentences

    _check_outputs({"--output": args.output}, {"--model": args.model, "--input": args.input})
    params = load_model(args.model)
    sentences = read_conllu_file(args.input)
    trees = parse_sentences(params, sentences, args.variant, args.iterations,
                            args.single_root == "on")
    predicted = [(t.heads.tolist(), [params.labels[i] for i in t.labels]) for t in trees]
    write_conllu_file(args.output, sentences, predicted)
    _log(f"parsed {len(trees)} sentences ({sum(t.mst for t in trees)} MST fallbacks)")
    return 0


def _cmd_eval(args):
    from .conllu import read_conllu_file, require_annotated
    from .evaluator import uas_las

    gold = read_conllu_file(args.gold)
    require_annotated(gold, args.gold)
    pred = read_conllu_file(args.pred)
    require_annotated(pred, args.pred)
    pairs = [(s.gold_heads, s.gold_labels) for s in pred]
    uas, las, counts = uas_las(pairs, gold, args.punct, (args.pred, args.gold))
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

    _check_outputs({"--csv": args.csv})
    rows, slopes = benchmark(lengths=args.lengths, repeats=args.repeats, seed=args.seed)
    print(format_table(rows, slopes), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(format_csv(rows))
    return 0


def _cmd_oracle_check(args):
    from . import autodiff as ad
    from .bench import random_scores
    from .decoder import mfvi
    from .oracle import best_arborescence_bruteforce, exact_marginals_local, exact_marginals_single
    from .tree import chu_liu_edmonds, tree_weight

    rng = np.random.default_rng(args.seed)
    dev_local, dev_single = [], []
    for _ in range(args.instances):
        sc = random_scores(4, rng)
        q = mfvi(sc, "local2o", args.iterations).head_probs()
        dev_local.append(np.abs(q - exact_marginals_local(sc)).max())
        sc3 = random_scores(3, rng)
        q = ad.val(mfvi(sc3, "single2o", args.iterations).final)
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
    except OSError as e:  # a missing file, a directory where a file belongs, ...
        print(f"error: {e.filename}: {e.strerror}" if e.filename else f"error: {e}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

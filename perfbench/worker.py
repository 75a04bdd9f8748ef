"""One workload process: run an mfdep CLI command through ``mfdep.cli.run``.

    python3 perfbench/worker.py --result FILE [--trace] -- parse --model ...

Without ``--trace`` only two counting hooks are installed: the first call
of ``score_sentence`` marks the end of set-up, and the sentences and
tokens that reach the scorer, and the tokens that reach
``sentence_loss`` in training, are counted. With ``--trace`` the public functions of each layer are wrapped
as well. Every binding through which callers reach a function is
rebound, so ``trainer.mfvi`` is traced like ``decoder.mfvi``. Spans
(name, start, end, parent) stay in memory and are reduced to per-layer
self times and counts when the command returns.

The result file is JSON. Times in it are ``time.monotonic()`` readings,
which on Linux share one clock across processes, so the parent can set
them against the moment it started this process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import mfdep.cli  # noqa: E402
from mfdep import autodiff, conllu, decoder, kernels, scorer, trainer, tree  # noqa: E402

clock = time.monotonic

# (module, function, span name). A span name is also the prefix of its
# per-layer metrics.
TRACED = (
    (conllu, "read_conllu_file", "conllu.read"),
    (conllu, "write_conllu_file", "conllu.write"),
    (trainer, "load_model", "trainer.load_model"),
    (trainer, "save_model", "trainer.save_model"),
    (trainer, "sentence_loss", "trainer.sentence_loss"),
    (trainer, "adam_step", "trainer.adam_step"),
    (trainer, "evaluate", "trainer.evaluate"),
    (scorer, "score_sentence", "scorer.score_sentence"),
    (scorer, "encode", "scorer.encode"),
    (scorer, "score_edges", "scorer.edge"),
    (scorer, "score_siblings", "scorer.sibling"),
    (scorer, "score_grandparents", "scorer.grandparent"),
    (scorer, "score_labels", "scorer.label"),
    (decoder, "mfvi", "decoder.mfvi"),
    (kernels, "messages_forward", "kernels.forward"),
    (kernels, "messages_backward", "kernels.backward"),
    (tree, "decode", "tree.decode"),
    (tree, "chu_liu_edmonds", "tree.cle"),
    (autodiff, "backward", "autodiff.backward"),
)


def rebind(module, name, make_wrapper):
    """Replace module.name, and every other mfdep binding of the same
    function object, with make_wrapper(original)."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "mfdep" or modname.startswith("mfdep.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


class Counters:
    """What both modes record: end of set-up, sentences and tokens."""

    def __init__(self):
        self.first_score = None
        self.sentences = 0
        self.tokens = 0
        self.train_tokens = 0

    def install(self):
        def on_score(fn):
            def score_sentence(sentence, *a, **kw):
                if self.first_score is None:
                    self.first_score = clock()
                self.sentences += 1
                self.tokens += len(sentence)
                return fn(sentence, *a, **kw)
            return score_sentence

        def on_loss(fn):
            def sentence_loss(sentence, *a, **kw):
                self.train_tokens += len(sentence)
                return fn(sentence, *a, **kw)
            return sentence_loss

        rebind(scorer, "score_sentence", on_score)
        rebind(trainer, "sentence_loss", on_loss)


class Tracer:
    """In-memory span recorder: spans[k] = [name, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.forward_sizes = []
        self.adam_skipped = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*a, **kw):
            k = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(k)
            try:
                return fn(*a, **kw)
            finally:
                stack.pop()
                spans[k][2] = clock()
        return traced

    def install(self):
        for module, fn_name, span in TRACED:
            rebind(module, fn_name, lambda fn, span=span: self.wrap(span, fn))

        def on_forward(fn):
            def messages_forward(q, sib, gp):
                self.forward_sizes.append(q.shape[0] - 1)
                return fn(q, sib, gp)
            return messages_forward

        def on_adam(fn):
            def adam_step(*a, **kw):
                stepped = fn(*a, **kw)
                self.adam_skipped += not stepped
                return stepped
            return adam_step

        rebind(kernels, "messages_forward", on_forward)
        rebind(trainer, "adam_step", on_adam)

    def self_times(self):
        """Per span name: total duration minus the time its children cover.
        Children run inside their parent on one thread, so their intervals
        do not overlap and their durations can simply be summed."""
        total, covered, calls = {}, {}, {}
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                covered[pname] = covered.get(pname, 0.0) + (end - start)
        return {n: total[n] - covered.get(n, 0.0) for n in total}, calls


def muladd_invariant_holds():
    """The summed closed form is only meaningful while it matches the
    instrumented loop count of the kernel."""
    return all(kernels.count_muladds(n) == kernels.closed_form_muladds(n) for n in range(1, 9))


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="run one mfdep command for perfbench")
    ap.add_argument("--result", required=True, metavar="FILE")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    counters = Counters()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    counters.install()

    rc = mfdep.cli.run(command)

    out = {
        "first_score": counters.first_score,
        "sentences": counters.sentences,
        "tokens": counters.tokens,
        "train_tokens": counters.train_tokens,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        self_s, calls = tracer.self_times()
        out.update(
            self_s=self_s,
            calls=calls,
            muladds=sum(kernels.closed_form_muladds(n) for n in tracer.forward_sizes),
            muladd_invariant=muladd_invariant_holds(),
            adam_skipped=tracer.adam_skipped,
            spans=tracer.spans,
        )
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())

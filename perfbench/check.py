"""Output checks for the perfbench workloads.

The checks read files the way a user of mfdep would, without importing
mfdep, so a defect in its reader or writer cannot hide itself. Each
returns (attempted, failed, problems): sentences attempted, sentences
whose output is wrong, and a few messages describing what was wrong.
"""
from __future__ import annotations

import json
import math
import struct

HEAD, DEPREL = 6, 7


def checkpoint_labels(path):
    """Label set stored in the JSON header of an mfdep checkpoint."""
    with open(path, "rb") as f:
        magic = f.read(4)
        _version, hlen = struct.unpack("<II", f.read(8))
        header = json.loads(f.read(hlen).decode("utf-8"))
    if magic != b"MFD1":
        raise ValueError(f"{path}: not an mfdep checkpoint")
    return set(header["labels"])


def _sentences(path):
    """Blank-line separated blocks of lines."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return [block.split("\n") for block in text.split("\n\n") if block.strip("\n")]


def _tree_problem(heads):
    """None if heads (1-based words, 0 = root) form a tree with exactly
    one root child, else a description of what is wrong."""
    n = len(heads)
    if any(h < 0 or h > n for h in heads):
        return "head out of range"
    if sum(h == 0 for h in heads) != 1:
        return f"{sum(h == 0 for h in heads)} root children"
    for start in range(1, n + 1):
        node, steps = start, 0
        while node != 0:
            node = heads[node - 1]
            steps += 1
            if steps > n:
                return "cycle"
    return None


def _sentence_problem(gold, pred, labels):
    if len(gold) != len(pred):
        return "line count differs from the input"
    heads = []
    for g, p in zip(gold, pred):
        if g.startswith("#") or p.startswith("#"):
            if g != p:
                return "comment line changed"
            continue
        gc, pc = g.split("\t"), p.split("\t")
        if len(pc) != 10:
            return f"{len(pc)} columns"
        if any(gc[k] != pc[k] for k in range(10) if k not in (HEAD, DEPREL)):
            return f"token {gc[0]}: a column other than HEAD/DEPREL changed"
        if pc[DEPREL] not in labels:
            return f"token {gc[0]}: label {pc[DEPREL]!r} not in the checkpoint"
        try:
            heads.append(int(pc[HEAD]))
        except ValueError:
            return f"token {gc[0]}: HEAD {pc[HEAD]!r} is not an integer"
    return _tree_problem(heads)


def check_parse(input_path, output_path, model_path):
    gold = _sentences(input_path)
    try:
        pred = _sentences(output_path)
    except (OSError, UnicodeDecodeError) as e:
        return len(gold), len(gold), [f"unreadable output: {e}"]
    if len(pred) != len(gold):
        return len(gold), len(gold), [f"{len(pred)} sentences out, {len(gold)} in"]
    labels = checkpoint_labels(model_path)
    problems = []
    for k, (g, p) in enumerate(zip(gold, pred)):
        problem = _sentence_problem(g, p, labels)
        if problem:
            problems.append(f"sentence {k + 1}: {problem}")
    return len(gold), len(problems), problems[:5]


def check_train(train_path, history_path, model_path):
    """One batch is one sentence and one epoch is run, so each history
    entry stands for one training sentence. A batch fails if its loss is
    not finite or its Adam step was skipped; batches missing from the
    history fail too, and a run without its final dev evaluation fails
    its last batch."""
    attempted = len(_sentences(train_path))
    try:
        with open(history_path, encoding="utf-8") as f:
            history = json.load(f)
        checkpoint_labels(model_path)
    except (OSError, ValueError) as e:
        return attempted, attempted, [f"unreadable training output: {e}"]
    problems = [f"iteration {e['iteration']}: loss {e['loss']}, stepped {e['stepped']}"
                for e in history if not (math.isfinite(e["loss"]) and e["stepped"])]
    failed = len(problems)
    missing = attempted - len(history)
    if missing:
        problems.append(f"{len(history)} batches in the history, expected {attempted}")
        failed += abs(missing)
    elif "dev_uas" not in history[-1]:
        problems.append("no dev evaluation at the last iteration")
        failed += 1
    return attempted, min(attempted, failed), problems[:5]

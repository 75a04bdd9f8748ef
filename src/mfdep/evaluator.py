"""Attachment-score computation with punctuation exclusion."""
from __future__ import annotations

from dataclasses import dataclass

# conventional PTB punctuation tags, matched against gold XPOS
PTB_PUNCT_XPOS = {"``", "''", ":", ",", "."}

PUNCT_MODES = ("upos-punct", "ptb-pos-set", "none")


@dataclass
class EvalCounts:
    scored: int = 0
    correct_heads: int = 0
    correct_labeled: int = 0
    skipped_punct: int = 0


def _is_punct(token, mode):
    if mode == "upos-punct":
        return token.upos == "PUNCT"
    if mode == "ptb-pos-set":
        return token.xpos in PTB_PUNCT_XPOS
    return False


def uas_las(pred, gold, punct_mode="upos-punct", sources=("pred", "gold")):
    """UAS/LAS over aligned predicted trees and gold sentences; ``pred``
    items are (heads, label names) pairs. A sentence or word count that
    differs raises ValueError naming both ``sources``, pred first."""
    if punct_mode not in PUNCT_MODES:
        raise ValueError(f"unknown punct_mode {punct_mode!r}")
    p_src, g_src = sources
    if len(pred) != len(gold):
        raise ValueError(f"{p_src} has {len(pred)} sentences, {g_src} has {len(gold)}")
    c = EvalCounts()
    for s_idx, ((heads, labels), sent) in enumerate(zip(pred, gold), start=1):
        if len(heads) != len(sent):
            sid = f" (sent_id {sent.sentence_id})" if sent.sentence_id else ""
            raise ValueError(f"sentence {s_idx}{sid}: {p_src} has {len(heads)} words, "
                             f"{g_src} has {len(sent)}")
        for j, tok in enumerate(sent.tokens):
            if _is_punct(tok, punct_mode):
                c.skipped_punct += 1
                continue
            c.scored += 1
            if int(heads[j]) != tok.gold_head:
                continue
            c.correct_heads += 1
            if labels[j] == tok.gold_label:
                c.correct_labeled += 1
    if c.scored == 0:
        return 0.0, 0.0, c
    return (
        100.0 * c.correct_heads / c.scored,
        100.0 * c.correct_labeled / c.scored,
        c,
    )

"""CoNLL-U reading and writing with exact round-trip behaviour.

Multiword-token ranges and empty nodes are retained verbatim (attached
to the following syntactic word position) so that writing a parsed file
back out reproduces the original bytes when no predictions are
substituted; a block of them alone reads as a sentence with no words. A
HEAD of ``_`` (unannotated input, as given to the parser) reads as
``gold_head=None`` and is written back as ``_``. One CR ending a line
(CRLF text) is dropped on reading; output always uses LF.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field


class ConlluError(ValueError):
    pass


@dataclass
class Token:
    form: str
    lemma: str
    upos: str
    xpos: str
    gold_head: int | None  # None when the HEAD column is "_"
    gold_label: str
    feats: str = "_"
    deps: str = "_"
    misc: str = "_"


@dataclass
class Sentence:
    tokens: list  # 1-indexed semantics; tokens[0] is word 1
    sentence_id: str = ""
    comment_lines: list = field(default_factory=list)
    # raw_lines[i] holds verbatim range/empty-node rows appearing just
    # before syntactic word i+1 (key len(tokens) = trailing rows)
    raw_lines: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.tokens)

    @property
    def gold_heads(self):
        return [t.gold_head for t in self.tokens]

    @property
    def gold_labels(self):
        return [t.gold_label for t in self.tokens]


def parse_conllu(text):
    """Parse CoNLL-U text into a list of Sentences. Raises ConlluError
    naming the line of a word whose ID is not the next integer (1, 2, ...
    in each sentence): the writer numbers words by position, so a gap or
    a repeat would point a HEAD at another word; likewise for a HEAD that
    ``str(int(HEAD))`` would not write back as read, such as ``+1``."""
    sentences = []
    comments = []
    tokens = []
    raw = {}
    lineno = 0

    def flush():
        nonlocal comments, tokens, raw
        if tokens or comments or raw:
            sid = ""
            for c in comments:
                if c.startswith("# sent_id"):
                    sid = c.split("=", 1)[1].strip() if "=" in c else ""
            sentences.append(Sentence(tokens, sid, comments, raw))
        comments, tokens, raw = [], [], {}

    for line in text.split("\n"):
        lineno += 1
        if line.endswith("\r"):  # CRLF line end
            line = line[:-1]
        if line == "":
            flush()
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(f"line {lineno}: expected 10 columns, got {len(cols)}")
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            # multiword range or empty node: keep verbatim, skip for parsing
            raw.setdefault(len(tokens), []).append(line)
            continue
        if tok_id != str(len(tokens) + 1):  # written back renumbered
            raise ConlluError(
                f"line {lineno}: word ID {tok_id!r}, expected {len(tokens) + 1}"
            )
        head = None
        if cols[6] != "_":
            try:
                head = int(cols[6])
            except ValueError:
                pass
            if head is None or str(head) != cols[6]:  # int() also takes " 1", "0_1", "01"
                raise ConlluError(f"line {lineno}: HEAD {cols[6]!r} is no integer in plain form")
        tokens.append(
            Token(
                form=cols[1],
                lemma=cols[2],
                upos=cols[3],
                xpos=cols[4],
                gold_head=head,
                gold_label=cols[7],
                feats=cols[5],
                deps=cols[8],
                misc=cols[9],
            )
        )
    flush()
    return sentences


def write_conllu(sentences, predicted=None):
    """Serialize sentences; optionally substitute predicted (heads, labels).

    ``predicted`` is a list (aligned with sentences) of (heads, labels)
    pairs, each a sequence of length len(sentence); labels may be None to
    keep the gold DEPREL column.
    """
    if predicted is not None and len(predicted) != len(sentences):
        raise ValueError("predicted/sentences length mismatch")
    out = []
    for s_idx, sent in enumerate(sentences):
        heads = labels = None
        if predicted is not None:
            heads, labels = predicted[s_idx]
            if len(heads) != len(sent):
                raise ValueError(f"sentence {s_idx}: predicted head count mismatch")
            if labels is not None and len(labels) != len(sent):
                raise ValueError(f"sentence {s_idx}: predicted label count mismatch")
        out.extend(sent.comment_lines)
        for i, tok in enumerate(sent.tokens):
            for rawline in sent.raw_lines.get(i, ()):
                out.append(rawline)
            head = tok.gold_head if heads is None else int(heads[i])
            label = tok.gold_label if labels is None else labels[i]
            out.append(
                "\t".join(
                    [
                        str(i + 1),
                        tok.form,
                        tok.lemma,
                        tok.upos,
                        tok.xpos,
                        tok.feats,
                        "_" if head is None else str(head),
                        label,
                        tok.deps,
                        tok.misc,
                    ]
                )
            )
        for rawline in sent.raw_lines.get(len(sent.tokens), ()):
            out.append(rawline)
        out.append("")
    return "\n".join(out) + "\n" if out else ""


def require_annotated(sentences, source):
    """Raise ConlluError naming the first sentence and word of source
    whose gold HEAD or DEPREL is missing (a ``_`` column), or whose HEAD
    is no candidate head: below 0, above the sentence length, or the
    word's own index."""
    for s_idx, sent in enumerate(sentences, start=1):
        n = len(sent)
        for i, tok in enumerate(sent.tokens, start=1):
            head = tok.gold_head
            if head is None or tok.gold_label == "_":
                problem = ("has no gold HEAD/DEPREL; training and evaluation "
                           "need annotated input")
            elif head < 0 or head > n or head == i:
                problem = (f"has HEAD {head}; a HEAD must lie in 0..{n} "
                           "and differ from the word's own index")
            else:
                continue
            sid = f" (sent_id {sent.sentence_id})" if sent.sentence_id else ""
            raise ConlluError(f"{source}: sentence {s_idx}{sid}, word {i} {problem}")


def filter_long(sentences, max_len):
    """Drop sentences with more than max_len words, preserving order."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return [s for s in sentences if len(s) <= max_len]


@contextlib.contextmanager
def open_text(path):
    """open(path) for UTF-8 text, a leading byte-order mark dropped; bytes
    that are not UTF-8 raise ValueError naming it."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason}: "
                             f"byte 0x{e.object[e.start:e.start + 1].hex()})") from None


def read_conllu_file(path):
    """``parse_conllu`` of the file at path; a format error names path."""
    with open_text(path) as f:
        text = f.read()
    try:
        return parse_conllu(text)
    except ConlluError as e:
        raise ConlluError(f"{path}: {e}") from None


def write_conllu_file(path, sentences, predicted=None):
    text = write_conllu(sentences, predicted)  # before the open: an error leaves path as it was
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)

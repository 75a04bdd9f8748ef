import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_TREEBANK, fixture_path
from mfdep.conllu import (
    ConlluError,
    Sentence,
    Token,
    parse_conllu,
    read_conllu_file,
    require_annotated,
    write_conllu,
    write_conllu_file,
    filter_long,
)
from mfdep.tree import is_tree


def test_empty_input():
    assert parse_conllu("") == []


def test_two_token_sentence():
    text = (
        "1\tHe\the\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
        "2\truns\trun\tVERB\tVBZ\t_\t0\troot\t_\t_\n\n"
    )
    sents = parse_conllu(text)
    assert len(sents) == 1
    assert sents[0].gold_heads == [2, 0]
    assert sents[0].gold_labels == ["nsubj", "root"]
    assert [t.form for t in sents[0].tokens] == ["He", "runs"]


def test_multiword_range_skipped_but_retained():
    sents = read_conllu_file(fixture_path("sample.conllu"))
    mw = sents[1]
    # the 2-3 range row never becomes a syntactic word
    assert [t.form for t in mw.tokens] == ["We", "going", "to", "run", "."]
    assert mw.gold_heads == [2, 0, 4, 2, 2]


def test_roundtrip_fixture_bytes():
    with open(fixture_path("sample.conllu"), encoding="utf-8") as f:
        original = f.read()
    assert write_conllu(parse_conllu(original)) == original


def test_roundtrip_toy_treebank():
    with open(TOY_TREEBANK, encoding="utf-8") as f:
        original = f.read()
    assert write_conllu(parse_conllu(original)) == original


def test_roundtrip_large_golden_file():
    # replicate the fixture to ~1000 sentences with distinct ids
    with open(fixture_path("sample.conllu"), encoding="utf-8") as f:
        block = f.read()
    parts = []
    for k in range(500):
        parts.append(block.replace("fx-00", f"fx-{k:04d}-"))
    text = "".join(parts)
    sents = parse_conllu(text)
    assert len(sents) == 1000
    out = write_conllu(sents)
    assert hashlib.sha256(out.encode()).digest() == hashlib.sha256(text.encode()).digest()


def test_predicted_substitution_rewrites_head_and_label_only():
    text = (
        "1\tHe\the\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
        "2\truns\trun\tVERB\tVBZ\t_\t0\troot\t_\t_\n\n"
    )
    sents = parse_conllu(text)
    out = write_conllu(sents, predicted=[([1, 0], ["det", "root"])])
    lines = out.strip("\n").split("\n")
    assert lines[0].split("\t")[6] == "1"
    assert lines[0].split("\t")[7] == "det"
    assert lines[0].split("\t")[1] == "He"
    assert lines[1].split("\t")[6] == "0"


def test_predicted_length_mismatch_raises():
    sents = parse_conllu("1\ta\ta\tX\tX\t_\t0\troot\t_\t_\n\n")
    with pytest.raises((ValueError, ConlluError)):
        write_conllu(sents, predicted=[([1, 2], ["a", "b"])])


@pytest.mark.parametrize("predicted,message", [
    ([], "predicted/sentences length mismatch"),
    ([([1, 0], ["a"])], "sentence 0: predicted label count mismatch"),
])
def test_predictions_that_do_not_fit_the_sentences_are_refused(predicted, message):
    sents = parse_conllu("1\ta\ta\tX\tX\t_\t2\tdep\t_\t_\n2\tb\tb\tX\tX\t_\t0\troot\t_\t_\n\n")
    with pytest.raises(ValueError, match=message):
        write_conllu(sents, predicted=predicted)


def test_a_failed_write_leaves_the_existing_file_as_it_was(tmp_path):
    sents = parse_conllu("1\ta\ta\tX\tX\t_\t0\troot\t_\t_\n\n")
    out = tmp_path / "pred.conllu"
    out.write_bytes(b"old bytes\n")
    with pytest.raises(ValueError, match="predicted head count mismatch"):
        write_conllu_file(str(out), sents, predicted=[([1, 2], None)])
    assert out.read_bytes() == b"old bytes\n"


def test_bad_column_count_reports_line_number():
    with pytest.raises(ConlluError) as err:
        parse_conllu("1\tonly\tthree\n\n")
    assert "1" in str(err.value)


def test_unannotated_head_reads_as_none_and_round_trips():
    text = (
        "# sent_id = raw-1\n"
        "1\tHe\the\tPRON\tPRP\t_\t_\t_\t_\t_\n"
        "2\truns\trun\tVERB\tVBZ\t_\t_\t_\t_\t_\n\n"
    )
    sents = parse_conllu(text)
    assert sents[0].gold_heads == [None, None]
    assert write_conllu(sents) == text
    assert write_conllu(sents, [([2, 0], ["nsubj", "root"])]).split("\n")[1:3] == [
        "1\tHe\the\tPRON\tPRP\t_\t2\tnsubj\t_\t_",
        "2\truns\trun\tVERB\tVBZ\t_\t0\troot\t_\t_",
    ]


def test_require_annotated_names_the_sentence():
    sents = parse_conllu(
        "1\ta\ta\tX\tX\t_\t0\troot\t_\t_\n\n"
        "# sent_id = s2\n1\tb\tb\tX\tX\t_\t0\t_\t_\t_\n\n"
    )
    require_annotated(sents[:1], "f.conllu")
    with pytest.raises(ConlluError, match=r"f\.conllu: sentence 2 \(sent_id s2\), word 1"):
        require_annotated(sents, "f.conllu")


def test_crlf_file_reads_like_lf(tmp_path):
    with open(TOY_TREEBANK, encoding="utf-8") as f:
        text = f.read()
    path = tmp_path / "crlf.conllu"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert b"\r\n" in path.read_bytes()
    assert write_conllu(read_conllu_file(str(path))) == text


def test_crlf_string_parses_like_lf():
    lf = (
        "# sent_id = s1\n"
        "1\ta\u2028b\ta\tX\tX\t_\t2\tdep\t_\t_\n"
        "2\tc\x1cd\tc\tX\tX\t_\t0\troot\t_\tSpaceAfter=No\n\n"
    )
    crlf = lf.replace("\n", "\r\n")
    assert write_conllu(parse_conllu(crlf)) == lf
    # LF separators with a stray CR ending each row: MISC loses the CR
    mixed = lf.replace("_\n", "_\r\n").replace("No\n", "No\r\n")
    sents = parse_conllu(mixed)
    assert [t.misc for t in sents[0].tokens] == ["_", "SpaceAfter=No"]
    assert [t.form for t in sents[0].tokens] == ["a\u2028b", "c\x1cd"]


# a column value: anything but the tab and line-end characters
_field = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)


@st.composite
def _sentences(draw):
    n = draw(st.integers(0, 5))
    tokens = [
        Token(
            form=draw(_field),
            lemma=draw(_field),
            upos=draw(_field),
            xpos=draw(_field),
            gold_head=draw(st.none() | st.integers(0, n)),
            gold_label=draw(st.just("_") | _field),
            feats=draw(_field),
            deps=draw(_field),
            misc=draw(_field),
        )
        for _ in range(n)
    ]
    sid = draw(st.none() | _field.map(str.strip).filter(bool))
    comments = [f"# sent_id = {sid}"] if sid is not None else []
    comments += ["#" + c for c in draw(st.lists(_field, max_size=2)) if not c.startswith(" sent_id")]
    raw = {}  # multiword ranges before word pos + 1, an empty node at the end
    # a sentence of no words needs a comment or a row to be written at all
    for pos in draw(st.lists(st.integers(0, n), min_size=0 if n or comments else 1, max_size=2)):
        tok_id = f"{pos}.1" if pos == n else f"{pos + 1}-{pos + 2}"
        cols = draw(st.lists(_field, min_size=9, max_size=9))
        raw.setdefault(pos, []).append("\t".join([tok_id] + cols))
    return Sentence(tokens, sid or "", comments, raw)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_sentences(), max_size=4))
def test_roundtrip_generated_sentences(sents):
    text = write_conllu(sents)
    assert parse_conllu(text) == sents
    assert parse_conllu(text.replace("\n", "\r\n")) == sents
    assert write_conllu(parse_conllu(text)) == text


def test_non_integer_head_rejected():
    # int() reads all but the first as 1 or 0, but they would be written
    # back as "1" or "0"
    for head in ("zero", "+1", " 1", "1 ", "0_1", "\u0661", "01", "-0"):
        with pytest.raises(ConlluError, match=re.escape(f"line 1: HEAD {head!r} is no")):
            parse_conllu(f"1\ta\ta\tX\tX\t_\t{head}\troot\t_\t_\n\n")
    assert parse_conllu("1\ta\ta\tX\tX\t_\t-1\troot\t_\t_\n\n")[0].gold_heads == [-1]


def _row(tok_id, head):
    return f"{tok_id}\tw\tw\tX\tX\t_\t{head}\tdep\t_\t_\n"


@pytest.mark.parametrize("ids,bad", [(("1", "3"), "line 3: word ID '3', expected 2"),
                                     (("1", "1"), "line 3: word ID '1', expected 2"),
                                     (("2", "3"), "line 2: word ID '2', expected 1"),
                                     (("1", "02"), "line 3: word ID '02', expected 2"),
                                     (("1", "x"), "line 3: word ID 'x', expected 2")])
def test_word_ids_out_of_sequence_are_rejected_naming_the_line(ids, bad):
    # written back as 1, 2, ..., such IDs would point a HEAD at another word
    text = "# sent_id = s1\n" + _row(ids[0], 0) + _row(ids[1], 1) + "\n"
    with pytest.raises(ConlluError, match=bad):
        parse_conllu(text)


def test_word_ids_restart_per_sentence_around_ranges_and_empty_nodes():
    text = (_row("1-2", "_") + _row("1", 0) + _row("1.1", "_") + _row("2", 1) + "\n"
            + _row("1", 0) + "\n")
    assert write_conllu(parse_conllu(text)) == text


def _make(n):
    rows = "".join(
        f"{i}\tw{i}\tw{i}\tX\tX\t_\t{i - 1}\tdep\t_\t_\n" for i in range(1, n + 1)
    )
    return parse_conllu(rows + "\n")[0]


def test_filter_long_all_short_unchanged():
    sents = [_make(2), _make(5)]
    assert filter_long(sents, 90) == sents


def test_filter_long_removes_over_limit():
    sents = [_make(90), _make(91)]
    kept = filter_long(sents, 90)
    assert len(kept) == 1 and len(kept[0]) == 90


def test_filter_long_boundary_one():
    sents = [_make(1), _make(2), _make(1)]
    kept = filter_long(sents, 1)
    assert [len(s) for s in kept] == [1, 1]


def test_filter_long_refuses_a_limit_below_one():
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        filter_long([_make(1)], 0)


def test_toy_treebank_gold_heads_are_trees():
    for sent in read_conllu_file(TOY_TREEBANK):
        assert is_tree(np.array(sent.gold_heads))

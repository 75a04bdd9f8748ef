import pytest

from conftest import fixture_path
from mfdep.conllu import parse_conllu, read_conllu_file
from mfdep.evaluator import uas_las


def _sent(rows):
    return parse_conllu("\n".join(rows) + "\n\n")[0]


def test_perfect_prediction():
    gold = read_conllu_file(fixture_path("sample.conllu"))
    pred = [(s.gold_heads, s.gold_labels) for s in gold]
    uas, las, counts = uas_las(pred, gold)
    assert uas == 100.0 and las == 100.0
    assert counts.scored == 6  # the PUNCT token in fx-002 is excluded


def test_half_right():
    gold = [_sent([
        "1\ta\ta\tNOUN\tNN\t_\t2\tnsubj\t_\t_",
        "2\tb\tb\tVERB\tVB\t_\t0\troot\t_\t_",
    ])]
    uas, las, _ = uas_las([([1, 0], ["nsubj", "root"])], gold)
    assert uas == 50.0 and las == 50.0


def test_wrong_label_on_right_head():
    gold = [_sent([
        "1\ta\ta\tNOUN\tNN\t_\t2\tnsubj\t_\t_",
        "2\tb\tb\tVERB\tVB\t_\t0\troot\t_\t_",
    ])]
    uas, las, _ = uas_las([([2, 0], ["obj", "root"])], gold)
    assert uas == 100.0 and las == 50.0


PUNCT_ROWS = [
    "1\tok\tok\tNOUN\tNN\t_\t2\tnsubj\t_\t_",
    "2\tfine\tfine\tVERB\tVB\t_\t0\troot\t_\t_",
    "3\t!\t!\tPUNCT\t.\t_\t2\tpunct\t_\t_",
]


def test_punctuation_modes():
    gold = [_sent(PUNCT_ROWS)]
    pred = [([2, 0, 1], ["nsubj", "root", "punct"])]  # punct head wrong
    uas_p, _, c = uas_las(pred, gold, punct_mode="upos-punct")
    assert uas_p == 100.0 and c.skipped_punct == 1
    uas_x, _, _ = uas_las(pred, gold, punct_mode="ptb-pos-set")
    assert uas_x == 100.0
    uas_n, _, _ = uas_las(pred, gold, punct_mode="none")
    assert uas_n == pytest.approx(100 * 2 / 3, abs=0.01)


def test_a_sentence_of_punctuation_only_scores_zero():
    gold = [_sent(["1\t!\t!\tPUNCT\t.\t_\t0\troot\t_\t_"])]
    uas, las, c = uas_las([([0], ["root"])], gold)
    assert (uas, las, c.scored, c.skipped_punct) == (0.0, 0.0, 0, 1)


def test_ptb_set_uses_gold_xpos_not_upos():
    rows = [
        "1\t,\t,\tNOUN\t,\t_\t2\tpunct\t_\t_",  # PTB comma XPOS, non-PUNCT UPOS
        "2\tgo\tgo\tVERB\tVB\t_\t0\troot\t_\t_",
    ]
    gold = [_sent(rows)]
    pred = [([0, 0], ["punct", "root"])]
    uas_ptb, _, _ = uas_las(pred, gold, punct_mode="ptb-pos-set")
    uas_upos, _, _ = uas_las(pred, gold, punct_mode="upos-punct")
    assert uas_ptb == 100.0
    assert uas_upos == 50.0


def test_las_never_exceeds_uas(rng):
    gold = [_sent(PUNCT_ROWS)]
    for _ in range(50):
        heads = [int(rng.integers(0, 4)) for _ in range(3)]
        labels = [str(rng.choice(["nsubj", "root", "punct"])) for _ in range(3)]
        uas, las, _ = uas_las([(heads, labels)], gold, punct_mode="none")
        assert 0.0 <= las <= uas <= 100.0


def test_sentence_order_invariance():
    gold = read_conllu_file(fixture_path("sample.conllu"))
    pred = [([1, 0], ["nsubj", "root"]),
            ([2, 0, 4, 2, 2], ["nsubj", "root", "mark", "xcomp", "punct"])]
    a = uas_las(pred, gold)[:2]
    b = uas_las(pred[::-1], gold[::-1])[:2]
    assert a == b


def test_errors():
    gold = [_sent(["1\ta\ta\tNOUN\tNN\t_\t0\troot\t_\t_"])]
    with pytest.raises(ValueError, match="^pred has 0 sentences, gold has 1$"):
        uas_las([], gold)
    with pytest.raises(ValueError, match="^sentence 1: p.conllu has 2 words, g.conllu has 1$"):
        uas_las([([0, 0], ["root", "root"])], gold, sources=("p.conllu", "g.conllu"))
    with pytest.raises(ValueError):
        uas_las([([0], ["root"])], gold, punct_mode="mystery")

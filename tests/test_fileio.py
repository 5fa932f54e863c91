"""Every loader names the file and line of the row it refuses.

Each case is a file whose first line is valid and whose second is not; the
loader must raise ``ParseError`` with the text ``<path>:2: <reason>``.
"""

import pytest

from arasent.classifier import load_model, read_svmlight
from arasent.cli import load_config_file, run
from arasent.errors import ParseError
from arasent.evaluation import load_corpus, load_ratings
from arasent.expansion import FixtureProvider, _load_pending_words
from arasent.features import CueLists
from arasent.lexicon import LEXICON_HEADER, load_idiom_lexicon, load_sentiment_lexicon
from arasent.preprocess import load_stopwords, load_tag_table

IDIOM = "تسليم القط مفتاح الكرار\tNG\n"

# id -> (loader, file name, file text, the reason after "<path>:2: ")
CASES = {
    "tag-table": (load_tag_table, "tags.tsv", "جميل\tJJ\nرائع\tXX\n", "unknown tag 'XX'"),
    "tag-table-duplicate": (load_tag_table, "tags.tsv", "خدمة\tNN\nخدمة\tJJ\n",
                            "duplicate word 'خدمة'"),
    "stopwords": (load_stopwords, "stopwords.txt", "في\nabc\n",
                  "word is empty after normalization"),
    "cue-lists": (lambda p: CueLists.load(p, p, p, p), "negators.txt", "لا\nمش مش\n",
                  "word is several words after normalization"),
    "lexicon": (load_sentiment_lexicon, "lexicon.tsv", f"{LEXICON_HEADER}\nرائع\tg\tt\tXX\t1\n",
                "polarity must be PO, NG or NU, got 'XX'"),
    "idioms": (load_idiom_lexicon, "idioms.tsv", IDIOM + "دموع التماسيح\tNU\n",
               "idiom polarity must be PO or NG"),
    "idioms-duplicate": (load_idiom_lexicon, "idioms.tsv", IDIOM * 2,
                         "duplicate idiom 'تسليم القط مفتاح الكرار'"),
    "synsets": (FixtureProvider.from_file, "synsets.tsv", "هايف\t\t\t\nهايف\t\t\t\n",
                "duplicate word 'هايف'"),
    "pending": (_load_pending_words, "lexicon.pending.tsv", "هايف\tPENDING\nabc\tPENDING\n",
                "pending word is empty after normalization"),
    "corpus": (load_corpus, "corpus.jsonl", '{"id": "1", "text": "رائع"}\n{"id": 2\n',
               "bad JSON: Expecting ',' delimiter"),
    "ratings": (load_ratings, "ratings.tsv", "PO\tNG\nPO\t\n", "empty rating column"),
    "svmlight": (read_svmlight, "f.svml", "+1 1:1\n+2 1:1\n", "label must be +1 or -1, got '+2'"),
    "config": (load_config_file, "run.conf", "seed = 7\nepochs = many\n",
               "epochs: invalid literal for int() with base 10: 'many'"),
    "model": (load_model, "model.txt", "schema_version: 1\nregularization 0.01\n",
              "expected key: value, got 'regularization 0.01'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_loader_names_the_file_and_line_it_refuses(tmp_path, case):
    loader, name, text, reason = CASES[case]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value) == f"{path}:2: {reason}"


def test_prevent_sidecar_names_its_own_file_and_line(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text(f"{LEXICON_HEADER}\nرائع\tg\tt\tPO\t1\n", encoding="utf-8")
    sidecar = tmp_path / "lexicon.prevent"
    sidecar.write_text("كلام\nرائع\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_sentiment_lexicon(path)
    assert str(err.value) == f"{sidecar}:2: رائع is already a lexicon entry"


def test_score_with_a_repeated_idiom_row_is_a_data_error_at_its_line(tmp_path, capsys):
    idioms = tmp_path / "idioms.tsv"
    idioms.write_text(IDIOM * 2, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "1", "text": "رائع"}\n', encoding="utf-8")
    assert run(["score", "--corpus", str(corpus), "--idioms", str(idioms)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {idioms}:2: duplicate idiom 'تسليم القط مفتاح الكرار'\n"

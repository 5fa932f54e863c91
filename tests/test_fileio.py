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
from arasent.fileio import atomic_write, read_data, read_lines, read_rows, read_terms
from arasent.lexicon import LEXICON_HEADER, load_idiom_lexicon, load_sentiment_lexicon
from arasent.preprocess import load_stopwords, load_tag_table

IDIOM = "تسليم القط مفتاح الكرار\tNG\n"


def _lexicon_of(sidecar):
    """Load the header-only lexicon whose prevent-list sidecar is ``sidecar``."""
    lexicon = sidecar.with_suffix(".tsv")
    lexicon.write_text(f"{LEXICON_HEADER}\n", encoding="utf-8")
    return load_sentiment_lexicon(lexicon)


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
    "lexicon-negative-tf": (load_sentiment_lexicon, "lexicon.tsv",
                            f"{LEXICON_HEADER}\nرائع\tg\tt\tPO\t-3\n",
                            "negative term frequency for 'رائع'"),
    "lexicon-tf-not-a-number": (load_sentiment_lexicon, "lexicon.tsv",
                                f"{LEXICON_HEADER}\nرائع\tg\tt\tPO\tx\n",
                                "term frequency must be a non-negative integer, got 'x'"),
    "prevent-duplicate": (_lexicon_of, "lexicon.prevent", "كلام\nكلام\n",
                          "'كلام' is already on the prevent list"),
    "idioms": (load_idiom_lexicon, "idioms.tsv", IDIOM + "دموع التماسيح\tNU\n",
               "idiom polarity must be PO or NG"),
    "idioms-duplicate": (load_idiom_lexicon, "idioms.tsv", IDIOM * 2,
                         "duplicate idiom 'تسليم القط مفتاح الكرار'"),
    "idioms-columns": (load_idiom_lexicon, "idioms.tsv", IDIOM + "زي العسل\tPO\tg\textra\n",
                       "expected 2 or 3 columns, got 4"),
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
    "config-duplicate": (load_config_file, "run.conf", "seed = 1\nseed = 2\n",
                         "duplicate key 'seed'"),
    "model": (load_model, "model.txt", "schema_version: 1\nregularization 0.01\n",
              "expected key: value, got 'regularization 0.01'"),
    "model-duplicate": (load_model, "model.txt", "bias: 0.5\nbias: 5.0\n",
                        "duplicate model field 'bias'"),
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
    assert str(err.value) == f"{sidecar}:2: 'رائع' is already a lexicon entry"


def test_score_with_a_repeated_idiom_row_is_a_data_error_at_its_line(tmp_path, capsys):
    idioms = tmp_path / "idioms.tsv"
    idioms.write_text(IDIOM * 2, encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "1", "text": "رائع"}\n', encoding="utf-8")
    assert run(["score", "--corpus", str(corpus), "--idioms", str(idioms)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {idioms}:2: duplicate idiom 'تسليم القط مفتاح الكرار'\n"


MODEL = ("schema_version: 1\nregularization: 0.01\nepochs: 200\nseed: 42\nscaling: none\n"
         + "".join(f"{slot}: {slot / 4}\n" for slot in range(1, 18)) + "bias: 0.5\n")


def _vectors(path):
    return [(v.vector, v.label, v.comment) for v in read_svmlight(path)]


# id -> (loader, {file name: text}); the loader reads the first file, the
# others sit beside it. A BOM read as part of the first rating would turn the
# ratings' kappa 0.5 into 0.111111.
BOM_CASES = {
    "corpus": (load_corpus, {"corpus.jsonl": '{"id": "a", "text": "رائع", "label": "PO"}\n'}),
    "lexicon": (load_sentiment_lexicon, {"lexicon.tsv": f"{LEXICON_HEADER}\nرائع\tg\tt\tPO\t1\n",
                                         "lexicon.prevent": "كلام\n"}),
    "model": (load_model, {"model.txt": MODEL}),
    "svmlight": (_vectors, {"f.svml": "+1 1:1 3:0.5 # a\n-1 2:1\n"}),
    "ratings": (load_ratings, {"ratings.tsv": "PO\tPO\nNG\tNG\nPO\tNG\nNG\tNG\n"}),
    "config": (load_config_file, {"run.conf": "seed = 7\n"}),
    "tag-table": (load_tag_table, {"tags.tsv": "جميل\tJJ\n"}),
    "stopwords": (load_stopwords, {"stopwords.txt": "في\n"}),
}


@pytest.mark.parametrize("case", sorted(BOM_CASES))
def test_a_file_that_starts_with_a_utf8_bom_loads_as_if_it_had_none(tmp_path, case):
    loader, files = BOM_CASES[case]
    loaded = []
    for folder, head in ((tmp_path / "plain", b""), (tmp_path / "bom", b"\xef\xbb\xbf")):
        folder.mkdir()
        for name, text in files.items():
            (folder / name).write_bytes(head + text.encode("utf-8"))
        loaded.append(loader(folder / next(iter(files))))
    assert loaded[0] == loaded[1]


READER_TEXT = "a\tb\n\n  # note\n c # tail \n\t\n#x\td\n"


@pytest.mark.parametrize("reader, items, last_line", [
    (read_data, ["a\tb", "# note", "c # tail", "#x\td"], 6),
    (read_rows, [["a", "b"], [" c # tail "]], 4),
    (read_terms, ["a\tb", "c"], 4)], ids=["data", "rows", "terms"])
def test_each_line_reader_skips_its_own_lines_and_counts_every_line(tmp_path, reader, items,
                                                                    last_line):
    path = tmp_path / "input.txt"
    path.write_text(READER_TEXT, encoding="utf-8")
    assert list(reader(path)) == items
    with pytest.raises(ParseError) as err:
        with reader(path) as lines:
            for item in lines:
                if item == items[-1]:
                    raise ValueError("refused")
    assert str(err.value) == f"{path}:{last_line}: refused"


def test_a_refusal_before_the_first_line_names_the_whole_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    with pytest.raises(ParseError) as err:
        with read_lines(path) as lines:
            assert list(lines) == []
            raise ValueError("refused")
    assert (str(err.value), err.value.line_no) == (f"{path}: refused", None)


def test_atomic_write_names_a_missing_directory_by_the_path_it_was_given(tmp_path):
    path = str(tmp_path / "nodir" / "x.svm")
    with pytest.raises(FileNotFoundError) as err:
        with atomic_write(path) as fh:
            fh.write("x")
    assert (err.value.filename, err.value.filename2) == (path, None)
    assert ".tmp" not in str(err.value)


def test_atomic_write_names_a_directory_it_cannot_replace_by_the_path_it_was_given(tmp_path):
    path = tmp_path / "adir"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        with atomic_write(path) as fh:
            fh.write("x")
    assert (err.value.filename, err.value.filename2) == (str(path), None)
    assert ".tmp" not in str(err.value)
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]  # no temporary file is left

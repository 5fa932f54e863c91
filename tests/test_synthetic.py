"""Integrity checks for the shipped fixture resources."""

from collections import Counter

from arasent import resources
from arasent.evaluation import load_corpus
from arasent.fileio import read_rows, read_terms
from arasent.lexicon import (
    LEXICON_HEADER,
    Polarity,
    count_corpus_tokens,
    load_sentiment_lexicon,
)
from arasent.preprocess import load_tag_table, normalize_word
from arasent.synthetic import (
    CORPUS_NG,
    CORPUS_PO,
    EXTRA_TAGGED,
    GENRES,
    HELDOUT,
    INTENSIFIERS,
    NEGATORS,
    QUESTIONS,
    STOPWORDS,
    WISHFUL,
    heldout_words,
    sample_corpus,
    write_data_files,
)


def test_shipped_files_match_regeneration(tmp_path):
    """Anyone can rebuild the generated files of the data directory byte for
    byte: the corpus and the two lexicons with their sidecars."""
    write_data_files(tmp_path)
    data_dir = resources.data_path("corpus.jsonl").parent
    rebuilt = sorted(p.name for p in tmp_path.iterdir())
    assert rebuilt == ["corpus.jsonl", "lexicon.prevent", "lexicon.tsv",
                       "lexicon_seed.prevent", "lexicon_seed.tsv"]
    for name in rebuilt:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name


def test_sample_corpus_shape():
    corpus = sample_corpus()
    assert len(corpus) == 200
    by_genre = Counter(t.genre for t in corpus)
    assert by_genre == {g: 50 for g in GENRES}
    assert all(t.label in (Polarity.PO, Polarity.NG) for t in corpus)
    assert len({t.id for t in corpus}) == 200


def test_sample_corpus_deterministic():
    assert sample_corpus(7) == sample_corpus(7)
    assert sample_corpus(7) != sample_corpus(8)


def _stored_keys():
    """Shipped word file name -> the key of each of its rows as stored: the
    term of a word list, else the first field (a word, or an idiom's phrase)
    of a table row other than the lexicon header."""
    keys = {}
    for path in sorted(resources.data_path("corpus.jsonl").parent.iterdir()):
        if path.suffix in (".txt", ".prevent"):
            with read_terms(path) as terms:
                keys[path.name] = list(terms)
        elif path.suffix == ".tsv":
            with read_rows(path) as rows:
                keys[path.name] = [row[0] for row in rows if row != LEXICON_HEADER.split("\t")]
    return keys


def test_vocab_has_no_duplicates():
    """Each row of a shipped word file holds a word (or phrase) of its own."""
    for name, keys in _stored_keys().items():
        repeated = [key for key, n in Counter(keys).items() if n > 1]
        assert not repeated, (name, repeated)


def test_vocab_words_are_normalization_fixpoints():
    """Every word of every shipped word file is stored normalized. The
    stopword and cue lists and the synset fixture reach the generator and
    its users as stored, not as the loaders fold them."""
    stored = [(name, word) for name, keys in _stored_keys().items()
              for key in keys for word in key.split(" ")]
    with read_rows(resources.data_path("synsets.tsv")) as rows:
        stored += [("synsets.tsv", word) for _, _, syns, ants in rows
                   for word in f"{syns},{ants}".split(",") if word]
    for name, word in stored:
        assert normalize_word(word) == word, (name, word)


def test_extra_tagged_words_are_the_tagged_words_outside_the_lexicon():
    """The tag table tags every lexicon word, and ``EXTRA_TAGGED`` holds the
    rest of it: the walkthrough words that belong to no lexicon."""
    tags = load_tag_table(resources.data_path("tags.tsv"))
    lexicon = {entry.word for entry in resources.load().lexicon}
    assert lexicon <= set(tags)
    assert EXTRA_TAGGED == {word: tag.value for word, tag in tags.items() if word not in lexicon}
    assert EXTRA_TAGGED


def test_corpus_pools_live_in_the_full_lexicon():
    lex = resources.load().lexicon
    for word in CORPUS_PO:
        assert lex.lookup(word).polarity is Polarity.PO, word
    for word in CORPUS_NG:
        assert lex.lookup(word).polarity is Polarity.NG, word


def test_heldout_words_absent_from_seed_lexicon():
    seed = load_sentiment_lexicon(resources.data_path("lexicon_seed.tsv"))
    full = resources.load().lexicon
    for word in heldout_words():
        assert seed.lookup(word) is None
        assert full.lookup(word) is not None
    assert len(full) - len(seed) == len(HELDOUT)


def test_cue_lists_disjoint_from_lexicon_and_stopwords():
    lex = resources.load().lexicon
    cue_words = set(NEGATORS) | set(INTENSIFIERS) | set(QUESTIONS) | set(WISHFUL)
    for word in cue_words:
        assert lex.lookup(word) is None, word
        assert word not in STOPWORDS, word
    # signal words must survive the shipped stoplist
    for word in CORPUS_PO + CORPUS_NG + heldout_words():
        assert word not in STOPWORDS, word


def test_every_heldout_word_occurs_in_the_corpus():
    counts = count_corpus_tokens(load_corpus(resources.data_path("corpus.jsonl")))
    for word in heldout_words():
        assert counts.get(word, 0) > 0, word


def test_shipped_lexicon_tf_matches_corpus():
    lex = resources.load().lexicon
    counts = count_corpus_tokens(load_corpus(resources.data_path("corpus.jsonl")))
    for entry in lex:
        assert entry.tf == counts.get(entry.word, 0), entry.word

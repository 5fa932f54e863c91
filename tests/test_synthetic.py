"""Integrity checks for the shipped fixture resources."""

from collections import Counter

from arasent import resources
from arasent.evaluation import load_corpus
from arasent.lexicon import Polarity, count_corpus_tokens
from arasent.synthetic import (
    CORPUS_NG,
    CORPUS_PO,
    GENRES,
    HELDOUT,
    INTENSIFIERS,
    NEGATORS,
    QUESTIONS,
    STOPWORDS,
    VOCAB,
    WISHFUL,
    heldout_words,
    sample_corpus,
    write_data_files,
)


def test_shipped_files_match_regeneration(tmp_path):
    """Anyone can rebuild the data directory byte for byte."""
    write_data_files(tmp_path)
    data_dir = resources.data_path("corpus.jsonl").parent
    shipped = sorted(p.name for p in data_dir.iterdir())
    rebuilt = sorted(p.name for p in tmp_path.iterdir())
    assert shipped == rebuilt
    for name in shipped:
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


def test_vocab_has_no_duplicates():
    words = [w for w, *_ in VOCAB] + [w for w, *_ in HELDOUT]
    assert len(words) == len(set(words))


def test_vocab_words_are_normalization_fixpoints():
    from arasent.preprocess import normalize_text
    for word, *_ in VOCAB + [(w, None) for w, *_ in HELDOUT]:
        assert normalize_text(word) == word, word


def test_corpus_pools_live_in_the_full_lexicon():
    lex = resources.load().lexicon
    for word in CORPUS_PO:
        assert lex.lookup(word).polarity is Polarity.PO, word
    for word in CORPUS_NG:
        assert lex.lookup(word).polarity is Polarity.NG, word


def test_heldout_words_absent_from_seed_lexicon():
    seed = resources.seed_lexicon()
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
    for word, entry in lex.entries.items():
        assert entry.tf == counts.get(word, 0), word

"""The resources a run reads (lexicons, cue lists, stopwords, tag table):
which files they are, and how each one is loaded."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ArasentError
from .features import Analyzer, CueLists
from .lexicon import (
    IdiomLexicon,
    SentimentLexicon,
    load_idiom_lexicon,
    load_sentiment_lexicon,
)
from .preprocess import PosTag, load_stopwords, load_tag_table

# Resource key -> packaged file name. The keys are also the CLI flags and
# the config-file keys that override a file.
FILES = {
    "lexicon": "lexicon.tsv", "idioms": "idioms.tsv",
    "stopwords": "stopwords.txt", "tagtable": "tags.tsv",
    "negators": "negators.txt", "intensifiers": "intensifiers.txt",
    "questions": "questions.txt", "wishful": "wishful.txt",
}


def data_path(name: str) -> Path:
    return Path(str(resources.files("arasent").joinpath("data", name)))


def seed_lexicon() -> SentimentLexicon:
    """The shipped lexicon minus the words recoverable through expansion."""
    return load_sentiment_lexicon(data_path("lexicon_seed.tsv"))


def locate(key: str, paths: Mapping[str, str | Path] = {}) -> Path:
    """The file resource ``key`` is read from: ``paths[key]`` when given,
    else the packaged file."""
    path = Path(paths[key]) if key in paths else data_path(FILES[key])
    if not path.exists():
        raise ArasentError(f"{key} file not found: {path}")
    return path


@dataclass(frozen=True)
class Resources:
    """The loaded resources of one run."""

    lexicon: SentimentLexicon
    idioms: IdiomLexicon
    cues: CueLists
    stopwords: frozenset[str]
    tags: dict[str, PosTag]

    @property
    def word_tags(self) -> dict[str, PosTag]:
        """The tag table, with the other words of ``lexicon`` tagged JJ."""
        return {**dict.fromkeys(self.lexicon.words(), PosTag.JJ), **self.tags}

    def analyzer(self, **windows) -> Analyzer:
        return Analyzer(self.lexicon, self.idioms, self.cues, stopwords=self.stopwords,
                        tags=self.word_tags, **windows)


def load(paths: Mapping[str, str | Path] = {}) -> Resources:
    """Every resource, each from ``paths[key]`` when given, else packaged."""
    where = {key: locate(key, paths) for key in FILES}
    return Resources(
        lexicon=load_sentiment_lexicon(where["lexicon"]),
        idioms=load_idiom_lexicon(where["idioms"]),
        cues=CueLists.load(negators=where["negators"], intensifiers=where["intensifiers"],
                           questions=where["questions"], wishful=where["wishful"]),
        stopwords=load_stopwords(where["stopwords"]),
        tags=load_tag_table(where["tagtable"]))

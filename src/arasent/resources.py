"""The resources a run reads (lexicons, cue lists, stopwords, tag table):
which files they are, and how each one is loaded. The loaders and the
``Analyzer`` are imported where they run, not with the file table."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import ArasentError

if TYPE_CHECKING:
    from .features import Analyzer, CueLists
    from .lexicon import IdiomLexicon, SentimentLexicon
    from .preprocess import PosTag

# Resource key -> packaged file name. The keys are also the CLI flags and
# the config-file keys that override a file.
FILES = {
    "lexicon": "lexicon.tsv", "idioms": "idioms.tsv",
    "stopwords": "stopwords.txt", "tagtable": "tags.tsv",
    "negators": "negators.txt", "intensifiers": "intensifiers.txt",
    "questions": "questions.txt", "wishful": "wishful.txt",
}


def data_path(name: str) -> Path:
    return Path(__file__).with_name("data") / name


def locate(key: str, paths: Mapping[str, str | Path] = {}) -> Path:
    """The file resource ``key`` is read from: ``paths[key]`` when given,
    else the packaged file. A path that is missing or is a directory is an
    ``ArasentError``."""
    path = Path(paths[key]) if key in paths else data_path(FILES[key])
    if not path.exists():
        raise ArasentError(f"{key} file not found: {path}")
    if path.is_dir():  # "", "." or "/" as well: a name with no file to read
        raise ArasentError(f"{key} file {path} is a directory")
    return path


class Resources(NamedTuple):
    """The loaded resources of one run."""

    lexicon: SentimentLexicon
    idioms: IdiomLexicon
    cues: CueLists
    stopwords: frozenset[str]
    tags: dict[str, PosTag]

    @property
    def word_tags(self) -> dict[str, PosTag]:
        """The tag table, with the other words of ``lexicon`` tagged JJ."""
        from .preprocess import PosTag

        return {**dict.fromkeys((e.word for e in self.lexicon), PosTag.JJ), **self.tags}

    def analyzer(self, **windows) -> Analyzer:
        from .features import Analyzer

        return Analyzer(self.lexicon, self.idioms, self.cues, stopwords=self.stopwords,
                        tags=self.word_tags, **windows)


def load(paths: Mapping[str, str | Path] = {}) -> Resources:
    """Every resource, each from ``paths[key]`` when given, else packaged."""
    from .features import CueLists
    from .lexicon import load_idiom_lexicon, load_sentiment_lexicon
    from .preprocess import load_stopwords, load_tag_table

    where = {key: locate(key, paths) for key in FILES}
    return Resources(
        lexicon=load_sentiment_lexicon(where["lexicon"]),
        idioms=load_idiom_lexicon(where["idioms"]),
        cues=CueLists.load(negators=where["negators"], intensifiers=where["intensifiers"],
                           questions=where["questions"], wishful=where["wishful"]),
        stopwords=load_stopwords(where["stopwords"]),
        tags=load_tag_table(where["tagtable"]))

"""arasent: lexicon-based sentiment analysis for MSA and Egyptian Arabic."""

__version__ = "0.1.0"

from .lexicon import (  # noqa: F401
    IdiomEntry,
    IdiomLexicon,
    LexiconEntry,
    Polarity,
    SentimentLexicon,
    load_idiom_lexicon,
    load_sentiment_lexicon,
    save_sentiment_lexicon,
    update_term_frequencies,
)
from .preprocess import (  # noqa: F401
    PosTag,
    normalize_text,
    split_sentences,
)
from .features import (  # noqa: F401
    Analyzer,
    CueLists,
    FeatureVector,
)
from .expansion import (  # noqa: F401
    FixtureProvider,
    SynsetResult,
    detect_orientation,
    expand_lexicon,
)
from .classifier import (  # noqa: F401
    LabeledVector,
    Model,
    TrainConfig,
    predict,
    read_svmlight,
    train,
    write_svmlight,
)
from .evaluation import (  # noqa: F401
    ConfusionCounts,
    SplitSpec,
    Topic,
    cohen_kappa,
    confusion_metrics,
    f_measure,
    split_corpus,
)

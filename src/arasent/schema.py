"""The feature schema and the polarity labels with their signs, apart from
the featurizer and the lexicon: the model layer and the corpus reader load
without the text pipeline."""

from enum import Enum

SCHEMA_VERSION = 1
N_SLOTS = 17


class Polarity(Enum):
    PO = "PO"
    NG = "NG"
    NU = "NU"

    def flipped(self) -> "Polarity":
        if self is Polarity.PO:
            return Polarity.NG
        if self is Polarity.NG:
            return Polarity.PO
        return Polarity.NU


# The one pairing of labels and signs: a lexicon word's value, an SVM label.
SIGN = {Polarity.PO: 1, Polarity.NG: -1, Polarity.NU: 0}

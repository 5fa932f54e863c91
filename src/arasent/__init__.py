"""arasent: lexicon-based sentiment analysis for MSA and Egyptian Arabic.

The package root re-exports nothing, so importing one submodule loads only
what it uses; import names from their submodules, e.g.
``from arasent.features import Analyzer``.
"""

__version__ = "0.1.0"

"""The feature schema that vectors, SVM-light files and model files share, apart
from the featurizer so that the model layer loads without it."""

SCHEMA_VERSION = 1
N_SLOTS = 17

import numpy as np
import pytest

from finhyp.embeddings import EmbeddingStore

# The frontend settings that are no longer configurable, each at the value
# it is fixed at, as frontend.json of an earlier release recorded them.
RETIRED_SETTINGS = {
    "indicators": ["Inc.", "Corp", "Ltd", "Bank", "Index", "Rate", "%"],
    "min_match_score": 0.2,
    "ngram_max": 6,
    "ngram_min": 3,
}


@pytest.fixture
def toy_store() -> EmbeddingStore:
    tokens = ["bond", "option", "swap", "corporate", "index"]
    rng = np.random.default_rng(0)
    return EmbeddingStore(tokens, rng.normal(size=(len(tokens), 4)))


def make_store(tokens, dim=3, seed=0) -> EmbeddingStore:
    rng = np.random.default_rng(seed)
    return EmbeddingStore(list(tokens), rng.normal(size=(len(tokens), dim)))


def rewrite_archive(path, **members):
    """Replace some members of a numpy archive, keeping the rest."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays.update(members)
    path.unlink()
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class Tripwire:
    """Unpickling one calls trip(), which records that it happened."""

    unpickled = []

    def __reduce__(self):
        return (_trip, ())


def _trip():
    Tripwire.unpickled.append(True)
    return "tripped"

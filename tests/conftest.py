import pytest
from hypothesis import settings

from latnash.games import RandomGameSpec, random_supermodular_game

# A failing property prints a @reproduce_failure blob, from which its
# example can be rebuilt; a game's repr alone names only its size.  Every
# other setting keeps its default, so each run still draws its own seed.
settings.register_profile("reproducible", print_blob=True)
settings.load_profile("reproducible")

# Acceptance corpus: seeds 0..199, 2-4 players, chains of length 2-4,
# mixed product/sublattice feasibility (the generator defaults).
CORPUS_SPEC = RandomGameSpec()
CORPUS_SEEDS = range(200)


@pytest.fixture(scope="session")
def corpus():
    return [random_supermodular_game(CORPUS_SPEC, seed) for seed in CORPUS_SEEDS]


@pytest.fixture(scope="session")
def small_corpus(corpus):
    """First 40 corpus games, for the heavier per-game property checks."""
    return corpus[:40]

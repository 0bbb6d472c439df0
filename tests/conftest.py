"""Shared fixtures: committed synthetic graphs and flow CSV paths.

The block-model fixtures are regenerated from their specs on every run;
determinism of the generator is itself under test, so the constants here
are the committed ground truth.
"""

import numpy as np
import pytest
from hypothesis import settings

from gridsentry.attacks import PerturbationSpec, apply
from gridsentry.experiments import split
from gridsentry.graphs import SbmSpec, sbm_generate

from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"

# Property tests draw the same examples on every run and have no per-example
# time limit, so a slow or loaded machine neither fails them on time nor
# draws examples that a rerun cannot repeat.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

# Main regression fixture for the structure optimizer: dense enough for the
# attack to have room, features strong enough that pruning is identifiable.
SBM60 = SbmSpec(n=60, classes=2, p_in=0.25, p_out=0.02, feature_dim=8,
                signal=1.5, noise_sigma=0.8, seed=7)

# Harsher-features variant used by the evasion drop check.
SBM60_SHARP = SbmSpec(n=60, classes=2, p_in=0.2, p_out=0.02, feature_dim=8,
                      signal=2.0, noise_sigma=1.0, seed=7)

# Small graph for the step-by-step descent check.
SBM12 = SbmSpec(n=12, classes=2, p_in=0.8, p_out=0.1, feature_dim=4,
                signal=1.5, noise_sigma=0.5, seed=11)

DICE_HALF = PerturbationSpec(kind="poisoning", rate=0.5, structure_mode="dice",
                             seed=7)


@pytest.fixture(scope="session")
def sbm60():
    return sbm_generate(SBM60)


@pytest.fixture(scope="session")
def sbm60_sharp():
    return sbm_generate(SBM60_SHARP)


@pytest.fixture(scope="session")
def sbm12():
    return sbm_generate(SBM12)


@pytest.fixture(scope="session")
def poisoned60(sbm60):
    return apply(sbm60, DICE_HALF, phase="training")


@pytest.fixture(scope="session")
def masks60(sbm60):
    return split(sbm60.labels, 0.8, seed=7)


@pytest.fixture(scope="session")
def flows_train_csv():
    return DATA_DIR / "flows_train.csv"


@pytest.fixture(scope="session")
def flows_detect_csv():
    return DATA_DIR / "flows_detect.csv"


def random_symmetric(n, seed, density=0.5):
    """Non-negative symmetric zero-diagonal test matrix."""
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n)) * (rng.random((n, n)) < density)
    sym = np.triu(raw, k=1)
    return sym + sym.T

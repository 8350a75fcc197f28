import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

from bicentral import ReverseTransform, WeightRelation, spectral

FIXTURES = Path(__file__).parent / "fixtures"

# Closed-form targets for the worked 2x2 example (weights [[2,3],[2,1]],
# reciprocal reverse): eigenvectors of [[2,4],[4/3,2]] and [[2,2],[8/3,2]],
# dominant eigenvalue 2 + 4/sqrt(3) from the quadratic characteristic
# polynomial in each case.
EX51_A = np.array([np.sqrt(3.0), 2.0]) / np.sqrt(7.0)
EX51_B = np.array([np.sqrt(3.0) / 2.0, 0.5])
EX51_RHO = 2.0 + 4.0 / np.sqrt(3.0)


#: Every way to copy a value: each must rebuild it through its constructor.
CLONES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


def count_searches(monkeypatch):
    """List that records the number of parts of each pattern search."""
    searches = []
    search = spectral._reaches_all

    def counting(steps):
        searches.append(len(steps))
        return search(steps)

    monkeypatch.setattr(spectral, "_reaches_all", counting)
    return searches


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def ex51() -> WeightRelation:
    return WeightRelation(
        a_labels=("a1", "a2"),
        b_labels=("b1", "b2"),
        weights=np.array([[2.0, 3.0], [2.0, 1.0]]),
    )


@pytest.fixture
def latin() -> WeightRelation:
    return WeightRelation(
        a_labels=("a1", "a2"),
        b_labels=("b1", "b2"),
        weights=np.array([[1.0, 2.0], [2.0, 1.0]]),
    )


def random_positive_relation(rng: np.random.Generator, m: int, n: int) -> WeightRelation:
    return WeightRelation(
        a_labels=tuple(f"a{j}" for j in range(n)),
        b_labels=tuple(f"b{i}" for i in range(m)),
        weights=rng.uniform(0.2, 3.0, size=(m, n)),
    )


ALL_SIMPLE_TRANSFORMS = (
    ReverseTransform.identity(),
    ReverseTransform.reciprocal(),
    ReverseTransform.scale(3.0),
    ReverseTransform.power(0.5),
)

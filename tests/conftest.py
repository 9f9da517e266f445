import numpy as np
import pytest

from foldtrack.automorphisms import (
    parse_automorphism, random_automorphism, rose_graph,
)
from foldtrack.graph import make_graph
from foldtrack.graph_map import make_graph_map


@pytest.fixture
def rose2():
    return rose_graph(2)


@pytest.fixture
def rose3():
    return rose_graph(3)


@pytest.fixture
def fibonacci(rose2):
    return make_graph_map(rose2, rose2, (0,), [(1, 2), (1,)])


@pytest.fixture
def parageometric():
    return parse_automorphism("a->ac, b->a, c->b")


@pytest.fixture
def theta():
    # two vertices, three parallel edges; rank 2
    return make_graph(2, [(0, 1), (0, 1), (0, 1)], basepoint=0,
                      marking=[(1, -2), (2, -3)])


def seeded_rng(seed, stream=0):
    return np.random.default_rng(np.random.Philox(key=seed, counter=[0, 0, 0, stream]))


@pytest.fixture
def experiment_draws():
    """draw(rank, length, trials, seed=1): the automorphisms that
    `experiment` draws for trials 0..trials-1, one Philox stream each."""
    def draw(rank, length, trials, seed=1):
        return [random_automorphism(rank, length, seeded_rng(seed, trial))
                for trial in range(trials)]
    return draw

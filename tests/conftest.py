import random

import pytest

import _corpus


@pytest.fixture(scope="session")
def fig1():
    return _corpus.fig1()


@pytest.fixture(scope="session")
def fig1_parsed():
    return _corpus.load("fig1.pip")


@pytest.fixture(scope="session")
def fig2_parsed():
    return _corpus.load("fig2.pip")


@pytest.fixture(scope="session")
def fig1_refined(fig1):
    """(pruned refinement result, invariants of the refined program)."""
    from pcfr.refine import refine_and_prune

    return refine_and_prune(fig1, ["t1a", "t1b", "t2", "t3"], _corpus.paper_layers(fig1))


@pytest.fixture(scope="session")
def fig2(fig1_refined):
    return fig1_refined[0].program


@pytest.fixture(scope="session")
def random_2024():
    """The 300 ``random_pip(Random(2024))`` programs, each with its
    ``_corpus.refinement`` (before and after pruning)."""
    rng = random.Random(2024)
    programs = [_corpus.random_pip(rng) for _ in range(300)]
    return [(p, _corpus.refinement(p)) for p in programs]

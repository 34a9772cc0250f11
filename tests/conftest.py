"""Shared fixtures: the named algebras are immutable, so build them once;
and a spy on the certificate builder's one orthonormalization."""

import pytest

from cdalg import named_algebra, properties


@pytest.fixture(scope="session")
def reals():
    return named_algebra("R")


@pytest.fixture(scope="session")
def complexes():
    return named_algebra("C")


@pytest.fixture(scope="session")
def quaternions():
    return named_algebra("H")


@pytest.fixture(scope="session")
def octonions():
    return named_algebra("O")


@pytest.fixture(scope="session")
def sedenions():
    return named_algebra("S")


@pytest.fixture(scope="session")
def twisted_octonions():
    return named_algebra("TO")


@pytest.fixture(scope="session")
def twisted_sedenions():
    return named_algebra("TS")


@pytest.fixture
def orthonormalize_calls(monkeypatch):
    """The argument tuples of every ``properties.orthonormalize`` call."""
    calls = []
    original = properties.orthonormalize

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(properties, "orthonormalize", spy)
    return calls

import pytest

from liemarkov.catalog import run_pipeline
from liemarkov.cayley import enumerate_semigroups


@pytest.fixture(scope="session")
def semigroups2():
    return enumerate_semigroups(2)


@pytest.fixture(scope="session")
def semigroups3():
    return enumerate_semigroups(3)


@pytest.fixture(scope="session")
def semigroups4():
    return enumerate_semigroups(4)


@pytest.fixture(scope="session")
def semigroups5():
    return enumerate_semigroups(5)


@pytest.fixture(scope="session")
def catalog2():
    return run_pipeline(order=2)


@pytest.fixture(scope="session")
def catalog3():
    return run_pipeline(order=3)


@pytest.fixture(scope="session")
def catalog4():
    return run_pipeline(order=4)


@pytest.fixture(scope="session")
def catalog5(semigroups5):
    return run_pipeline(tables=semigroups5)

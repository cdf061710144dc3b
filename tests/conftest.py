import pytest

from ramsums import quadratic_field, rational_integers


def _prepared(inst):
    inst.extend(30)  # enough atoms for label lookups in the tests
    return inst


@pytest.fixture(scope="session")
def zint():
    return _prepared(rational_integers())


@pytest.fixture(scope="session")
def qi():
    return _prepared(quadratic_field(-1))


@pytest.fixture(scope="session")
def q23():
    return _prepared(quadratic_field(-23))


@pytest.fixture(scope="session")
def q2():
    return _prepared(quadratic_field(2))


@pytest.fixture(scope="session")
def q5():
    return _prepared(quadratic_field(5))

import numpy as np
import pytest

from diskflow.basis import stokes_basis


@pytest.fixture(scope="session")
def basis13():
    """Shared mode table large enough for every n,k <= 13 test."""
    return stokes_basis(13, 13)


@pytest.fixture
def rng():
    """A fresh generator per test, so its inputs do not depend on which
    tests ran before it."""
    return np.random.default_rng(1234)

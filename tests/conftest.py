import numpy as np
import pytest

from cavsinglet import liouville
from cavsinglet.schemes import SchemeId, preset
from oracles import build_master_equation


@pytest.fixture(scope="session")
def s1_params():
    """Reference-cavity dark-state preset at weak driving Omega = gamma/10."""
    return preset(SchemeId.S1)


@pytest.fixture(scope="session")
def s1_master(s1_params):
    return build_master_equation(s1_params)


@pytest.fixture(scope="session")
def s1_liouvillian(s1_master):
    return liouville.vectorize(s1_master)


@pytest.fixture(scope="session")
def s1_steady(s1_liouvillian):
    return liouville.steady_state(s1_liouvillian)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)

import pytest

from snwave import MovingDomainSpec, compute_Tc


@pytest.fixture(scope="session")
def tc_quarter():
    return compute_Tc(0.25)


@pytest.fixture(scope="session")
def spec_quarter(tc_quarter):
    return MovingDomainSpec(k=0.25, T=tc_quarter)

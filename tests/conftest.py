import pytest

from galmckay.chartab import dixon_schneider
from galmckay.zoo import agl18_normalizer, small_group


@pytest.fixture(scope="session")
def sz8_table():
    from galmckay.verify import global_side
    return global_side("2B2", 1).table


@pytest.fixture(scope="session")
def psl28_table():
    from galmckay.verify import global_side
    return global_side("PSL2", 1).table


@pytest.fixture(scope="session")
def agl168_table():
    return dixon_schneider(agl18_normalizer())


@pytest.fixture(scope="session")
def su32_ext_table():
    return dixon_schneider(small_group("su3_2_ext"))

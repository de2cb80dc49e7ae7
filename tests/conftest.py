import os

import pytest

import coxcent
from coxcent import CoxeterContext, enumerate_group

# the tests that start `python -m coxcent` run the package imported here
_SOURCE = os.path.dirname(os.path.dirname(coxcent.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SOURCE, os.environ.get("PYTHONPATH")))
)

_CONTEXTS: dict[str, CoxeterContext] = {}
_GROUPS: dict[str, object] = {}


def get_context(name: str) -> CoxeterContext:
    ctx = _CONTEXTS.get(name)
    if ctx is None:
        ctx = CoxeterContext.from_name(name)
        _CONTEXTS[name] = ctx
    return ctx


def get_group(name: str):
    group = _GROUPS.get(name)
    if group is None:
        group = enumerate_group(get_context(name))
        _GROUPS[name] = group
    return group


@pytest.fixture(scope="session")
def context_of():
    return get_context


@pytest.fixture(scope="session")
def group_of():
    return get_group

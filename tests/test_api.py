"""The public names of the package: what ``usomat`` exports, and what it no longer does."""

import dataclasses
import importlib
import pkgutil

import pytest

import usomat

SUBMODULES = [info.name for info in pkgutil.iter_modules(usomat.__path__)]

# Names retired because each was a one-line composition of names that stay:
# canonicalize(o) is build_matousek(extract_influence_graph(o)), and
# orientation_from_rows and all_dags live on as test helpers in oracles.py.
# cauchy_to_uso(ext, inst) is plcp_to_uso(inst), which reads M and q alone.
RETIRED_FUNCTIONS = ("canonicalize", "orientation_from_rows", "all_dags", "cauchy_to_uso")
RETIRED_MEMBERS = [
    ("Orientation", "uniform"),  # Orientation(n, range(1 << n))
    ("Branching", "children"),
    ("RationalMatrix", "solve"),  # solve_matrix with one column
]


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(usomat.__all__) == len(set(usomat.__all__))
    for name in usomat.__all__:
        assert hasattr(usomat, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from usomat import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(usomat.__all__)


@pytest.mark.parametrize("module", ["usomat", *(f"usomat.{m}" for m in SUBMODULES)])
def test_retired_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in RETIRED_FUNCTIONS:
        assert not hasattr(mod, name), f"{module}.{name}"
    for cls, member in RETIRED_MEMBERS:
        if hasattr(mod, cls):
            assert not hasattr(getattr(mod, cls), member), f"{module}.{cls}.{member}"


def test_random_facet_result_has_no_depth():
    """The depth was always n, so a run reports only its sink and its count."""
    assert [f.name for f in dataclasses.fields(usomat.RfResult)] == ["sink", "evaluations"]

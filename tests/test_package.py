import dataclasses
import importlib
import inspect

import pytest


@pytest.mark.parametrize("name", ["geometry", "fem", "solvers", "game"])
def test_every_exported_name_exists(name):
    # a stale entry would make ``from snwave.<name> import *`` raise
    module = importlib.import_module(f"snwave.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


MODULES = ["snwave", "snwave.geometry", "snwave.fem", "snwave.solvers", "snwave.game",
           "snwave.verification", "snwave.cli"]

# The README's "Removed public names": module-level names, attributes of a
# class (dataclass fields included) and parameters of a function.
REMOVED_NAMES = [
    "SpatialMesh", "build_spatial_mesh", "TriDiagMatrix", "assemble_mass",
    "assemble_stiffness", "solve_tridiagonal", "follower_update", "leader_update",
    "stopping_quantity", "ForwardProblem", "BackwardProblem", "ControlSamples",
    "assemble_left_boundary",
]
REMOVED_ATTRIBUTES = [
    ("SNConfig", "initial_controls"), ("BoundarySegments", "mode"), ("TimeGrid", "__len__"),
    ("SNResult", "spec"), ("SNResult", "iterates"),
]
REMOVED_PARAMETERS = [("boundary_flux_left", "method"), ("fixed_point_solve", "keep_iterates")]


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_stay_removed(module):
    mod = importlib.import_module(module)
    assert [n for n in REMOVED_NAMES if hasattr(mod, n)] == []


@pytest.mark.parametrize("cls,name", REMOVED_ATTRIBUTES)
def test_removed_attributes_stay_removed(cls, name):
    cls = getattr(importlib.import_module("snwave"), cls)
    assert not hasattr(cls, name)
    assert name not in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("func,name", REMOVED_PARAMETERS)
def test_removed_parameters_stay_removed(func, name):
    func = getattr(importlib.import_module("snwave"), func)
    assert name not in inspect.signature(func).parameters

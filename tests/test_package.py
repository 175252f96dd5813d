import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

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
    ("SNResult", "spec"), ("SNResult", "iterates"), ("BoundarySegments", "leader_mask"),
    ("BoundarySegments", "follower_mask"),
]
REMOVED_PARAMETERS = [("boundary_flux_left", "method"), ("fixed_point_solve", "keep_iterates"),
                      ("nash_residual", "grid"), ("evaluate_J2", "grid"),
                      ("evaluate_J2", "target"), ("solve_forward", "plan"),
                      ("solve_backward", "plan")]


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


@pytest.mark.parametrize("max_iter", [100, 2])  # a converged run and a capped one
def test_result_reads_iterations_segments_and_target_from_its_solve(max_iter):
    sw = importlib.import_module("snwave")
    derived = ("iterations", "segments", "target")
    assert not {f.name for f in dataclasses.fields(sw.SNResult)} & set(derived)
    res = sw.fixed_point_solve(sw.SNConfig(sigma=100.0, max_iter=max_iter),
                               sw.MovingDomainSpec(k=0.25, T=4.0), sw.build_time_grid(4.0, 20), 10)
    assert res.converged == (max_iter == 100)
    assert res.iterations == len(res.log)
    assert res.converged or res.iterations == max_iter
    assert res.segments is res._sweep.segments and res.target is res._sweep.target
    for name in derived:
        with pytest.raises(AttributeError):
            setattr(res, name, getattr(res, name))


def test_readme_library_example_runs():
    # the README's "Library example" is run as written, so it cannot drift
    # from the signatures it shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library example", "exec"), {})


def test_cli_import_loads_no_verification_and_no_third_party_module_but_numpy():
    """``import snwave.cli`` in a fresh interpreter: ``verification`` loads
    only when ``verify`` runs, and numpy is the one third-party module, so
    no undeclared dependency such as scipy comes in."""
    src = str(Path(importlib.import_module("snwave").__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import snwave.cli; "
            "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "snwave.cli" in added and "snwave.verification" not in added
    top = {name.split(".")[0] for name in added} - set(sys.stdlib_module_names)
    assert top == {"numpy", "snwave"}


def _imported_names(module: str) -> set:
    """``(module, name)`` of every ``from ... import`` in the snwave module ``module``."""
    path = Path(importlib.import_module(f"snwave.{module}").__file__)
    return {(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_game_and_cli_reach_the_march_through_the_plan():
    """``game`` takes from ``solvers`` the level plan and what the sweep map
    builds on it, not a march, flux or distance function; node rows come
    from ``plan.node_row``, so neither ``game`` nor ``cli`` imports the
    node formula."""
    game = _imported_names("game")
    assert {name for module, name in game if module == "solvers"} == {
        "_SWEEP_ERRSTATE", "Trajectory", "_LevelPlan", "_level_plan"}
    for names in (game, _imported_names("cli")):
        assert "_node_rows" not in {name for _, name in names}


def _attribute_reads(module: str) -> dict:
    """Attribute name -> the top-level definitions of the snwave module
    ``module`` that read it as ``x.name``."""
    path = Path(importlib.import_module(f"snwave.{module}").__file__)
    reads: dict = {}
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(getattr(top, "name", "<module>"))
    return reads


def test_game_does_no_grid_arithmetic():
    """The time step, the node rows, the trace and the target belong to the
    grid and the plan: ``game`` reads no ``dt`` or ``node_row``, and the
    levels only for ``nash_gradient_check``'s direction profiles."""
    reads = _attribute_reads("game")
    assert "dt" not in reads and "node_row" not in reads
    assert reads["levels"] == {"nash_gradient_check"}
    names = {name for _, name in _imported_names("game")}
    assert not names & {"_left_trace", "_segment_norm", "_target"}
    for module, name in (("fem", "_segment_norm"), ("solvers", "_left_trace"),
                         ("game", "_target")):
        assert not hasattr(importlib.import_module(f"snwave.{module}"), name)


def test_solvers_wraps_a_trajectory_only_in_its_public_marches():
    """The level plan's contract is on arrays: ``solvers`` builds
    ``Trajectory(...)`` only in ``solve_forward`` and ``solve_backward``,
    and its zero frames need no weak reference."""
    tree = ast.parse(Path(importlib.import_module("snwave.solvers").__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "weakref" not in imported
    builders = {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Trajectory"}
    assert builders == {"solve_forward", "solve_backward"}

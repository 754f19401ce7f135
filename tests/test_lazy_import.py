"""The package namespace loads a submodule on the first access to one of its
names. Each test runs in a fresh interpreter, since this process has
imported every submodule already."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nashdescent
from nashdescent.cli import main

GEN_5X5_MODULES = ["nashdescent.descent", "nashdescent.game", "nashdescent.generator",
                   "nashdescent.lp"]


def run_fresh(script: str):
    """Run `script` in a new interpreter that imports this checkout's package;
    returns the JSON its last line prints."""
    src = str(Path(nashdescent.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('nashdescent.'))"


def test_bare_import_loads_no_submodule():
    assert run_fresh(f"""
        import json, sys
        import nashdescent
        print(json.dumps({LOADED}))
    """) == []


def test_generator_names_load_only_what_they_import():
    assert run_fresh(f"""
        import json, sys
        import nashdescent
        nashdescent.generate_tight, nashdescent.verify_tight, nashdescent.solve_b
        nashdescent.sample_tight_games
        print(json.dumps({LOADED}))
    """) == GEN_5X5_MODULES


# Subcommands that run only the generator, with their arguments; GAME and
# OUT stand for a game file and an output directory.
GENERATOR_RUNS = {
    "constants": ["constants"],
    "verify": ["verify", "GAME"],
    "generate-static": ["generate", "--static", "tight-3x3", "--out", "OUT"],
    "generate-sampled": ["generate", "--size", "3x3", "--count", "1", "--out", "OUT"],
}


@pytest.mark.parametrize("argv", GENERATOR_RUNS.values(), ids=GENERATOR_RUNS)
def test_generator_subcommands_load_only_what_they_run(tmp_path, capsys, argv):
    assert main(["generate", "--static", "tight-3x3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    paths = {"GAME": str(tmp_path / "tight-3x3.json"), "OUT": str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in argv]
    assert run_fresh(f"""
        import json, sys
        from nashdescent.cli import main
        code = main({argv!r})
        print(json.dumps([code, {LOADED}]))
    """) == [0, sorted(["nashdescent.cli", *GEN_5X5_MODULES])]


# The submodule each algorithm of `solve` runs, beyond the harness's own.
SOLVER_MODULES = {"ts": "adjust", "dfm": "dfm", "fp": "baselines", "rm": "baselines",
                  "zs": "baselines"}


@pytest.mark.parametrize("algorithm", SOLVER_MODULES)
def test_solve_loads_only_its_algorithms_solver(tmp_path, capsys, algorithm):
    assert main(["generate", "--static", "tight-3x3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    argv = ["solve", str(tmp_path / "tight-3x3.json"), "--algorithm", algorithm]
    if algorithm in ("fp", "rm"):
        argv += ["--rounds", "50"]
    assert run_fresh(f"""
        import json, sys
        from nashdescent.cli import main
        code = main({argv!r})
        print(json.dumps([code, {LOADED}]))
    """) == [0, sorted(["nashdescent.cli", "nashdescent.experiments",
                        f"nashdescent.{SOLVER_MODULES[algorithm]}", *GEN_5X5_MODULES])]


def test_lattice_profile_loads_no_solver():
    """The benchmark's ts-tight3 set-up reads this sampler from the harness."""
    assert run_fresh(f"""
        import json, sys
        import nashdescent
        nashdescent.experiments.lattice_profile
        print(json.dumps({LOADED}))
    """) == sorted(["nashdescent.experiments", *GEN_5X5_MODULES])


def test_every_public_name_is_its_defining_modules_object():
    out = run_fresh("""
        import importlib, json
        import nashdescent
        listed = set(dir(nashdescent))
        print(json.dumps({
            name: [getattr(nashdescent, name) is getattr(
                       importlib.import_module(f"nashdescent.{module}"), name),
                   name in listed]
            for module, names in nashdescent._NAMES.items() for name in names
        }))
    """)
    assert sorted(out) == sorted(nashdescent.__all__)
    assert all(same and listed for same, listed in out.values())


def test_star_import_binds_every_name():
    out = run_fresh("""
        import json
        import nashdescent
        from nashdescent import *
        print(json.dumps([name for name in nashdescent.__all__ if name not in globals()]
                         + [len(nashdescent.__all__)]))
    """)
    assert out == [len(nashdescent.__all__)]


def test_submodules_resolve_as_attributes():
    assert run_fresh("""
        import json
        import nashdescent
        print(json.dumps([nashdescent.experiments.lattice_profile.__module__,
                          nashdescent.lp.__name__]))
    """) == ["nashdescent.experiments", "nashdescent.lp"]


def test_unknown_attribute_raises_attribute_error_naming_it():
    assert run_fresh("""
        import json
        import nashdescent
        try:
            nashdescent.no_such_name
        except AttributeError as err:
            print(json.dumps([str(err), hasattr(nashdescent, "__wrapped__")]))
    """) == ["module 'nashdescent' has no attribute 'no_such_name'", False]

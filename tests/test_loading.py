"""The package loads each module on first use: public names resolve lazily,
and each subcommand imports only the modules it runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planaralg
from conftest import corpus_entry

PACKAGE_ROOT = str(Path(planaralg.__file__).resolve().parents[1])


def loaded_modules(args: list[str]) -> tuple[int, set[str], set[str]]:
    """Exit code, the planaralg submodules and the top-level names of all
    modules ("numpy" for numpy.linalg) that a fresh interpreter imports
    while it runs `python -X importtime ARGS`."""
    paths = [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, timeout=120, env=env
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    submodules = {n.split(".", 1)[1] for n in names if n.startswith("planaralg.")}
    return run.returncode, submodules, {n.split(".", 1)[0] for n in names}


def test_import_loads_no_submodule():
    code, loaded, _ = loaded_modules(["-c", "import planaralg"])
    assert code == 0
    assert loaded == set()


@pytest.fixture
def cli_files(tmp_path):
    inclusion = tmp_path / "inclusion.json"
    inclusion.write_text(json.dumps(corpus_entry("C-in-C3").inclusion().to_dict()), encoding="utf-8")
    not_markov = tmp_path / "not-markov.json"
    not_markov.write_text(json.dumps(corpus_entry("C-C2-in-M3").inclusion().to_dict()), encoding="utf-8")
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"generators": [{"perm_a": [0], "perm_b": [1, 2, 0]}]}), encoding="utf-8")
    return {"IN": str(inclusion), "NM": str(not_markov), "GROUP": str(group)}


# analyze, tower and dims need only the inclusion, not its graph algebra or a
# group; tower and dims print integers only, so they need no radicals.
NO_ALGEBRA = {"graph", "tangles", "symmetry"}
INTEGERS_ONLY = NO_ALGEBRA | {"radical"}


@pytest.mark.parametrize(
    "argv, code, absent",
    [
        (["analyze", "--input", "IN"], 0, NO_ALGEBRA),
        (["analyze", "--input", "NM"], 0, NO_ALGEBRA),
        (["tower", "--input", "IN", "--depth", "3"], 0, INTEGERS_ONLY),
        (["tower", "--input", "NM", "--depth", "3"], 3, INTEGERS_ONLY),
        (["dims", "--input", "IN", "--kmax", "4", "--format", "csv"], 0, INTEGERS_ONLY),
        (["dims", "--input", "IN", "--kmax", "18"], 4, INTEGERS_ONLY),
        (["verify-tl", "--input", "IN", "--kmax", "2"], 0, {"symmetry"}),
        (["fixed", "--input", "IN", "--group", "GROUP", "--kmax", "3"], 0, {"tangles"}),
        (["tower", "--input", "IN", "--depth", "3", "--format", "csv"], 0, INTEGERS_ONLY),
        (["fixed", "--input", "IN", "--group", "GROUP", "--kmax", "3", "--format", "csv"], 0, {"tangles"}),
    ],
)
def test_subcommand_loads_only_its_modules(cli_files, argv, code, absent):
    # Only word norms need numpy, and analyze computes them for Markov inputs.
    word_norms = argv[:3] == ["analyze", "--input", "IN"]
    argv = [cli_files.get(a, a) for a in argv]
    returncode, loaded, top = loaded_modules(["-m", "planaralg", *argv])
    assert returncode == code
    assert "cli" in loaded
    assert loaded.isdisjoint(absent), loaded & absent
    assert "dataclasses" not in top
    # numpy imports inspect itself; nothing else that runs here does.
    assert "inspect" not in top or word_norms
    assert ("numpy" in top) == word_norms
    # csv is loaded to write a CSV report, and only then.
    assert ("csv" in top) == ("csv" in argv and returncode == 0)


@pytest.mark.parametrize("name", planaralg.__all__)
def test_public_name_is_its_modules_object(name):
    value = getattr(planaralg, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("planaralg.")
    assert value.__name__ == name
    assert getattr(module, name) is value


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from planaralg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(planaralg.__all__)
    assert len(set(planaralg.__all__)) == len(planaralg.__all__) == 48
    assert planaralg.__all__ == sorted(planaralg.__all__)


def test_dir_lists_all():
    assert dir(planaralg) == planaralg.__all__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        planaralg.no_such_name
    assert not hasattr(planaralg, "no_such_name")
    # A submodule is not a public name; it still imports as one.
    from planaralg import radical

    assert radical is sys.modules["planaralg.radical"]

"""The package's public names: each module lists its own, and ``subens``
republishes them. The version is written once in each of two files."""

import re
from pathlib import Path

import subens
from subens import operators, scenario, states, subensemble
from subens.cli import main

MODULES = (operators, scenario, states, subensemble)


def test_each_public_name_is_listed_once_by_its_module():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)) == 36
    assert subens.__all__ == sorted(listed)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(subens, name) is getattr(module, name)


def test_version_agrees_with_pyproject(capsys):
    # read with a regex: Python 3.10 has no tomllib
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert subens.__version__ == version
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == version + "\n"

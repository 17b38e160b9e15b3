"""The package's public names: each module lists its own, and ``subens``
republishes them. The version is written once in each of two files, and the
README's library example runs."""

import re
from pathlib import Path

import subens
from subens import operators, scenario, states, subensemble
from subens.cli import main

MODULES = (operators, scenario, states, subensemble)


def test_each_public_name_is_listed_once_by_its_module():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)) == 31
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


def test_readme_library_example_runs():
    # the python block under "## Library", so a renamed member fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"\n## Library\n\n```python\n(.*?)\n```\n", readme, re.DOTALL)
    # blank lines first, so a traceback gives the line numbers of README.md
    source = "\n" * readme.count("\n", 0, example.start(1)) + example.group(1)
    exec(compile(source, "README.md", "exec"), {})

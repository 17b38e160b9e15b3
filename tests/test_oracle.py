"""The benchmark's independent oracle accepts every output of a seeded cycle.

``perfbench/oracle.py`` recomputes each CLI output in plain numpy and never
imports subens. Running the first request and one cycle of every workload
through it checks the kernels and the renderer on random inputs at
d = 2..128, which the golden digests, pinned to fixed inputs, do not cover.
The modules are loaded by file path because ``perfbench`` is not a package,
and are registered in ``sys.modules`` only while they load: ``oracle.py``
imports ``workloads`` by name.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from subens import pauli_expand, pauli_synthesize
from subens.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, mp):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        return _load("workloads", mp), _load("oracle", mp)


def execute(req):
    """(exit code, output) of one request, as the benchmark client runs it."""
    if req.argv is None:
        return 0, pauli_synthesize(pauli_expand(req.matrix))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(req.argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", ["scenario", "files-small", "files-large", "pauli"])
def test_oracle_accepts_first_request_and_one_cycle(bench, tmp_path, name):
    workloads, oracle = bench
    workload = workloads.WORKLOADS[name](0, tmp_path)
    reqs = [workload.first()] + workload.cycle(0)
    for req in reqs:
        code, out = execute(req)
        assert oracle.verdict(req, code, out) is None
        req.cleanup()

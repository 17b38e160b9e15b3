"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload it runs the first request and one cycle and requires
that nothing fails and, on files-small, that every injected invalid input is
rejected with exit 3. It then requires the oracle to accept each output
with every float moved by one ulp, and ``table --format csv`` with a header
row, and to reject each output corrupted (one number shifted by 0.5, or a
wrong exit code for rejected inputs). Last, it traces one scenario cycle
with a target that does not exist and requires the run to go on, with that
target listed as absent. Exits 0 on success, 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import sys

import numpy as np

import oracle
import run
import workloads
from spans import TARGETS, Tracer

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def nudge(req, out):
    """The output with every float moved by one ulp, which must still pass."""
    if req.matrix is not None:
        return np.nextafter(out.real, np.inf) + 1j * np.nextafter(out.imag, np.inf)
    return _FLOAT.sub(lambda m: repr(float(np.nextafter(float(m.group()), np.inf))), out)


def with_header(req, out):
    """table --format csv with a header row and a label column, which must pass."""
    labels = oracle.TABLES[req.check["input"]][0]
    rows = [f"{label},{line}" for label, line in zip(labels, out.splitlines())]
    return "\n".join(["row,eta_1,eta_2,eta_3,eta_4"] + rows)


def corrupt(req, code, out):
    """(code, out) with the last number of the output shifted by 0.5."""
    if req.matrix is not None:
        bad = np.array(out, copy=True)
        bad[0, 0] += 0.5
        return code, bad
    if req.expect_exit != 0:
        return 0, out
    last = list(_NUMBER.finditer(out))[-1]
    shifted = repr(float(last.group()) + 0.5)
    return code, out[: last.start()] + shifted + out[last.end():]


def fail(msg: str) -> int:
    print(f"selftest FAIL: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    problem = run.import_program()
    if problem is not None:
        return fail(problem)
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            client = run.Client(cls(7, workdir))
            reqs = [client.workload.first()] + client.workload.cycle(1)
            for req in reqs:
                _, code, out = client.execute(req)
                if not client.judge(req, code, out):
                    return fail(f"{name}: {client.failures[-1]}")
                if oracle.verdict(req, code, nudge(req, out)) is not None:
                    return fail(f"{name}: the oracle rejected a one-ulp change of {req.kind}")
                if req.kind.startswith("table.") and req.kind.endswith(".csv"):
                    if oracle.verdict(req, code, with_header(req, out)) is not None:
                        return fail(f"{name}: the oracle rejected a header row on {req.kind}")
                bad_code, bad_out = corrupt(req, code, out)
                if oracle.verdict(req, bad_code, bad_out) is None:
                    return fail(f"{name}: the oracle accepted a corrupted {req.kind} output")
                client.rejected += code == 3
                client.invalid += req.invalid is not None
                req.cleanup()
            if client.rejected != client.invalid:
                return fail(f"{name}: {client.rejected} rejected, {client.invalid} invalid injected")
            if name == "files-small" and client.invalid == 0:
                return fail("files-small injected no invalid input")
            print(
                f"selftest ok: {name}: {client.attempted} requests, {client.invalid} invalid;"
                " ulp change passes, corruption caught"
            )

        tracer = Tracer(TARGETS + (("gone.function", "subens.cli", "no_such_function"),))
        client = run.Client(workloads.Scenario(7, workdir), tracer)
        tracer.install()
        try:
            client.cycles(1, stop=2)
        finally:
            tracer.uninstall()
        stats = tracer.aggregate()
        if client.failures or tracer.absent != ["subens.cli.no_such_function"]:
            return fail(f"traced run: failures {client.failures[:1]}, absent {tracer.absent}")
        if stats["cli.main"][0] != len(workloads.Scenario.kinds) or "scenario.eta_projector" not in stats:
            return fail(f"traced run: unexpected spans {sorted(stats)}")
        print(f"selftest ok: tracing: {len(tracer.spans)} spans, absent target reported")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

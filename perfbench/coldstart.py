"""Fresh-interpreter probe for set-up time and the cold first request.

    python coldstart.py SRC_DIR numpy
    python coldstart.py SRC_DIR REQUEST_FILE

The first form times ``import numpy``. The second times
``import subens, subens.cli`` and then the request described in
REQUEST_FILE (``{"argv": [...]}`` for the CLI, ``{"matrix": ...}`` for a
Pauli round trip). Both then run the pace probe of ``pace.py`` nine times
and report the median. Prints one JSON object on stdout.
"""

import contextlib
import io
import json
import sys
import time


def probe_s() -> float:
    """Median of nine runs of the pace probe, after the timed work."""
    from pace import probe

    return sorted(probe() for _ in range(9))[4]


def main() -> None:
    src, what = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if what == "numpy":
        t0 = time.perf_counter()
        import numpy  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - t0, "probe_s": probe_s()}))
        return
    with open(what, encoding="utf-8") as fh:
        req = json.load(fh)
    t0 = time.perf_counter()
    import subens
    import subens.cli

    t1 = time.perf_counter()
    if "argv" in req:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t2 = time.perf_counter()
            code = subens.cli.main(req["argv"])
            t3 = time.perf_counter()
        result = out.getvalue()
    else:
        import numpy as np

        h = np.array([[complex(*z) for z in row] for row in req["matrix"]])
        t2 = time.perf_counter()
        m = subens.pauli_synthesize(subens.pauli_expand(h))
        t3 = time.perf_counter()
        code = 0
        result = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    doc = {"import_s": t1 - t0, "request_s": t3 - t2, "probe_s": probe_s(), "code": code, "out": result}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()

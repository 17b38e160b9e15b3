"""The host-pace probe.

The host is shared, and its pace drifts by up to a third over minutes. A
fixed reference probe, independent of subens, runs between requests and in
each fresh interpreter. Its time over PROBE_REF_S is the pace of the process
it ran in. End-to-end timings are divided by the pace, so they read as if
measured at the reference pace. PROBE_REF_S is the probe's slow-half median
on a 2-core 2.1 GHz Xeon VM with Python 3.11.7 and numpy 2.4.6.
"""

import json
from time import perf_counter

import numpy as np

PROBE_REF_S = 2.25e-3
PROBE_EVERY_S = 0.2

_M = np.arange(64.0).reshape(8, 8) * (1 + 1j) / 64
_DOC = [[i / 7, -i / 3] for i in range(40)]


def probe() -> float:
    """Seconds of fixed Python, JSON and small-matrix work, like a request."""
    t0 = perf_counter()
    for _ in range(4):
        json.loads(json.dumps(_DOC))
        ",".join(format(v, ".17g") for row in _DOC for v in row)
        a = _M
        for _ in range(20):
            a = 0.5 * (a @ _M + _M @ a) / 8
        float(np.trace(a).real)
        d = {}
        for i in range(300):
            d[str(i)] = (i, i * 0.5)
    return perf_counter() - t0

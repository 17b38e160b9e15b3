"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``subens`` module namespace that holds it, so that a call is seen
whichever namespace its caller looks it up in: patching both
``subens.cli.decompose`` and ``subens.subensemble.decompose`` makes the
inner call of ``mh_joint`` a child span. A target that no longer exists is
listed in ``absent`` and its metrics read 0; the run goes on.

A span is (name, start, end, parent index, request id). Spans are kept in a
list and written out at the end. A call to a function whose name equals the
open span's name (``named_basis`` calling ``basis_from_kets``, say) is
folded into that span, so a name is never counted inside itself.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _by_dim(base):
    def name(args, kwargs):
        rho = args[0] if args else kwargs.get("rho")
        try:
            return f"{base}.d{np.shape(rho)[0]}"
        except (IndexError, TypeError, ValueError):
            return f"{base}.d?"

    return name


# (span name or namer, defining module, attribute)
TARGETS = (
    ("cli.main", "subens.cli", "main"),
    (_by_dim("subensemble.mh_joint"), "subens.subensemble", "mh_joint"),
    (_by_dim("subensemble.decompose"), "subens.subensemble", "decompose"),
    ("subensemble.basis", "subens.subensemble", "basis_from_kets"),
    ("subensemble.basis", "subens.subensemble", "named_basis"),
    ("subensemble.validate_density", "subens.subensemble", "validate_density"),
    ("subensemble.assignment_operator", "subens.subensemble", "assignment_operator"),
    ("operators.matrix_from_json", "subens.operators", "matrix_from_json"),
    ("operators.ket_from_json", "subens.operators", "ket_from_json"),
    ("operators.pauli_expand", "subens.operators", "pauli_expand"),
    ("operators.pauli_synthesize", "subens.operators", "pauli_synthesize"),
    ("fmt.dumps", "subens.fmt", "dumps"),
    ("fmt.csv_line", "subens.fmt", "csv_line"),
    ("fmt.render_table", "subens.fmt", "render_table"),
    ("scenario.verify_paradox", "subens.scenario", "verify_paradox"),
    ("scenario.eta_basis", "subens.scenario", "eta_basis"),
    ("scenario.contribution_table", "subens.scenario", "contribution_table"),
    ("scenario.outcome_probability", "subens.scenario", "outcome_probability"),
    ("scenario.eta_projector", "subens.scenario", "eta_projector"),
    ("states.product_input", "subens.states", "product_input"),
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent, request]
        self.request = 0
        self.absent = []
        self._stack = []
        self._patched = []

    def _wrap(self, namer, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            parent = stack[-1] if stack else None
            if parent is not None and spans[parent][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, parent, self.request])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [
            m for k, m in sys.modules.items() if m is not None and (k == "subens" or k.startswith("subens."))
        ]
        for namer, modname, attr in self.targets:
            orig = getattr(sys.modules.get(modname), attr, None)
            if not callable(orig):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(namer, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def aggregate(self) -> dict:
        """{name: [calls, inclusive seconds, self seconds]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            st = stats[name]
            st[0] += 1
            st[1] += end - start
            st[2] += end - start - child[i]
        return dict(stats)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

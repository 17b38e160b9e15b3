"""subens benchmark: one closed-loop client, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from ``src/``.
One process acts as one client. It calls ``subens.cli.main(argv)`` in
process with stdout captured (or, for ``pauli``, the library directly) and
sends the next request only after the previous one returns; there is no
thread pool. Every output is checked by ``oracle.py``, which never imports
subens.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs the same requests twice, untraced and then with the span
wrappers of ``spans.py`` installed, and prints the per-layer metrics from
the traced pass together with ``trace.overhead_ratio``.

The last line of stdout is the result object; the line before it holds the
provenance, the stdout digest manifest and the failure details.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# One client on a 2-core machine: with its default of one thread per core,
# OpenBLAS keeps a second thread spinning on the other core (26.9 s of CPU in
# 15.3 s of wall time on files-large), so every timing would also carry the
# noise of that core. Set before numpy loads; fresh interpreters inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from pace import PROBE_EVERY_S, PROBE_REF_S, probe  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters per run for setup_s / cold_request_ms / the numpy floor.
FRESH = 15
# Untimed warm-up: one cycle, cut short after this many seconds.
WARMUP_S = 1.0

MH_DIMS = (2, 4, 8, 32, 64, 128)
DECOMPOSE_DIMS = (2, 4, 8, 16, 32, 64, 128)


def per_layer_names() -> list:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    names = []
    for base, dims in (("subensemble.mh_joint", MH_DIMS), ("subensemble.decompose", DECOMPOSE_DIMS)):
        for d in dims:
            names += [(f"{base}.d{d}.calls", "count"), (f"{base}.d{d}.s", "s"), (f"{base}.d{d}.self_s", "s")]
    for base in (
        "subensemble.basis",
        "subensemble.validate_density",
        "operators.matrix_from_json",
        "operators.ket_from_json",
        "fmt.dumps",
        "fmt.csv_line",
        "fmt.render_table",
        "scenario.verify_paradox",
        "scenario.eta_basis",
        "scenario.contribution_table",
        "scenario.outcome_probability",
        "operators.pauli_expand",
        "operators.pauli_synthesize",
    ):
        names += [(f"{base}.calls", "count"), (f"{base}.s", "s")]
    names += [
        ("scenario.eta_projector.calls", "count"),
        ("states.product_input.calls", "count"),
        ("subensemble.assignment_operator.calls", "count"),
        ("cli.main.calls", "count"),
        ("cli.main.s", "s"),
        ("cli.main.self_s", "s"),
        ("cli.stdout_bytes", "bytes"),
        ("cli.rejected", "count"),
        ("workload.invalid_injected", "count"),
        ("setup.numpy_import_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.untraced_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.requests", "count"),
    ]
    return names


END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("cold_request_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------


def _blas_threads():
    """(library, threads) of the OpenBLAS numpy loaded, read through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and line.rstrip().endswith(".so")
            }
    except OSError:
        return None, None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return Path(lib).name, fn()
    return None, None


def provenance(seed: int, loadavg) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "subens").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas_lib, blas_threads = _blas_threads()
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_lib,
        "blas_threads": blas_threads,
        "loadavg_start": list(loadavg),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# The client.
# ---------------------------------------------------------------------------


def import_program() -> str | None:
    """Import subens from SRC; the reason it cannot be, or None."""
    if not (SRC / "subens" / "__init__.py").is_file():
        return f"no program source at {SRC / 'subens'}"
    sys.path.insert(0, str(SRC))
    import subens

    if Path(subens.__file__).resolve().parent != (SRC / "subens").resolve():
        return f"imported subens from {subens.__file__}, not {SRC}"
    return None


class Client:
    """The closed-loop client: one request at a time, each output checked."""

    def __init__(self, workload, tracer=None):
        import subens
        import subens.cli

        self.subens = subens
        self.cli = subens.cli
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.stdout_bytes = 0
        self.rejected = 0
        self.invalid = 0
        self.probes = []
        self._next_probe = 0.0

    def pace_probe(self) -> None:
        """Run the reference probe three times if PROBE_EVERY_S has passed."""
        if perf_counter() >= self._next_probe:
            self.probes += [probe() for _ in range(3)]
            self._next_probe = perf_counter() + PROBE_EVERY_S

    def execute(self, req):
        """(seconds, exit code, output) of one request; only the call is timed."""
        if req.argv is None:
            t0 = perf_counter()
            m = self.subens.pauli_synthesize(self.subens.pauli_expand(req.matrix))
            return perf_counter() - t0, 0, m
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = self.cli.main(req.argv)
            elapsed = perf_counter() - t0
        return elapsed, code, out.getvalue()

    def judge(self, req, code, out) -> bool:
        self.attempted += 1
        reason = oracle.verdict(req, code, out)
        if reason is not None:
            self.failures.append(reason)
        return reason is None

    def run(self, req) -> float:
        """Run, check and clean up one request; returns its latency."""
        t0 = perf_counter()
        try:
            elapsed, code, out = self.execute(req)
        except Exception as exc:  # the program failed; count it and go on
            elapsed = perf_counter() - t0
            self.attempted += 1
            self.failures.append(f"{req.kind}: {type(exc).__name__}: {exc}")
        else:
            self.judge(req, code, out)
            if isinstance(out, str):
                self.stdout_bytes += len(out.encode())
            self.rejected += code == 3
        self.invalid += req.invalid is not None
        req.cleanup()
        return elapsed

    def cycles(self, start: int, stop=None, seconds=None) -> list:
        """(kind, latency) of every request of cycles start..stop-1, or of
        whole cycles until seconds have passed; returns the cycle count too."""
        out = []
        k = start
        t_end = perf_counter() + seconds if seconds is not None else None
        while (stop is None or k < stop) and (t_end is None or perf_counter() < t_end):
            for req in self.workload.cycle(k):
                if self.tracer is not None:
                    self.tracer.request += 1
                out.append((req.kind, self.run(req)))
                self.pace_probe()
            k += 1
        return out, k - start

    def warm_up(self) -> None:
        self.run(self.workload.first())
        t_end = perf_counter() + WARMUP_S
        for req in self.workload.cycle(0):
            if perf_counter() < t_end:
                self.run(req)
            else:
                req.cleanup()


def fresh(args: list) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), str(SRC), *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def cold_start(client, workdir: Path):
    """Median import time and first-request latency over fresh interpreters,
    each divided by the pace its own interpreter measured."""
    req = client.workload.first()
    spec = workdir / "first-request.json"
    spec.write_text(json.dumps(req.describe()), encoding="utf-8")
    raw_imports, raw_firsts, imports, firsts = [], [], [], []
    for _ in range(FRESH):
        child = fresh([str(spec)])
        out = child["out"]
        if req.argv is None:
            out = np.array([[complex(*z) for z in row] for row in out])
        client.judge(req, child["code"], out)
        pace = child["probe_s"] / PROBE_REF_S
        raw_imports.append(child["import_s"])
        raw_firsts.append(child["request_s"])
        imports.append(child["import_s"] / pace)
        firsts.append(child["request_s"] / pace)
    req.cleanup()
    raw = {"setup_s": statistics.median(raw_imports), "cold_request_s": statistics.median(raw_firsts)}
    return statistics.median(imports), statistics.median(firsts), raw


def digests(workdir: Path) -> dict:
    """sha256 of stdout for a fixed set of invocations, independent of --seed."""
    client = Client(None)
    manifest = {}
    reqs = workloads.Scenario(0, workdir).cycle(0) + workloads.FilesSmall(0, workdir).cycle(0)
    for j, req in enumerate(sorted(reqs, key=lambda r: r.kind)):
        _, code, out = client.execute(req)
        manifest[f"{j:02d}.{req.kind}"] = f"{code}:{hashlib.sha256(out.encode()).hexdigest()}"
        req.cleanup()
    return manifest


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def slow_half(samples: list) -> list:
    """The slower half of the samples.

    The host is shared: for spells of a few seconds it runs up to a third
    faster than its usual pace. The timed requests and the pace probes are
    taken over their slower halves, so those spells do not move them.
    """
    ranked = sorted(samples)
    return ranked[len(ranked) // 2:]


def kept_latencies(timed: list) -> dict:
    """The slower half of each request kind's latencies, by kind."""
    by_kind = defaultdict(list)
    for kind, latency in timed:
        by_kind[kind].append(latency)
    return {kind: slow_half(xs) for kind, xs in by_kind.items()}


def measure(client, workdir: Path, seconds: float):
    setup_s, cold_s, raw_cold = cold_start(client, workdir)
    client.warm_up()
    timed, n_cycles = client.cycles(1, seconds=seconds)
    kept = kept_latencies(timed)
    lat = [x for xs in kept.values() for x in xs]
    p99 = percentile(lat, 99)
    # Requests per busy second when every kind takes its median kept latency.
    busy = sum(len(xs) * statistics.median(xs) for xs in kept.values())
    raw = {
        "throughput_rps": len(lat) / busy,
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_p90_ms": 1e3 * percentile(lat, 90),
    }
    pace = statistics.median(slow_half(client.probes)) / PROBE_REF_S
    values = {name: v * pace if name == "throughput_rps" else v / pace for name, v in raw.items()}
    values["setup_s"] = setup_s
    values["cold_request_ms"] = 1e3 * cold_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["setup_s"] = raw_cold["setup_s"]
    raw["cold_request_ms"] = 1e3 * raw_cold["cold_request_s"]
    info = {
        "pace": pace,
        "probes": len(client.probes),
        "raw": raw,
        "timed_cycles": n_cycles,
        "timed_requests": len(timed),
        "kept_requests": len(lat),
        "latency_p99_ms": 1e3 * p99 / pace,
        "p99_samples_beyond": sum(x > p99 for x in lat),
        "fresh_interpreters": FRESH,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, info


def measure_traced(client, tracer, workdir: Path, seconds: float, name: str):
    children = [fresh(["numpy"]) for _ in range(FRESH)]
    numpy_s = statistics.median(c["import_s"] * PROBE_REF_S / c["probe_s"] for c in children)
    client.warm_up()
    untraced, n = client.cycles(1, seconds=seconds / 2)
    client.tracer = tracer
    base = (client.stdout_bytes, client.rejected, client.invalid)
    tracer.install()
    try:
        traced, _ = client.cycles(1, stop=1 + n)
    finally:
        tracer.uninstall()
    stats = tracer.aggregate()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.jsonl")
    t_u = sum(x for _, x in untraced)
    t_t = sum(x for _, x in traced)
    extra = {
        "cli.stdout_bytes": client.stdout_bytes - base[0],
        "cli.rejected": client.rejected - base[1],
        "workload.invalid_injected": client.invalid - base[2],
        "setup.numpy_import_s": numpy_s,
        "trace.overhead_ratio": t_t / t_u,
        "trace.untraced_s": t_u,
        "trace.traced_s": t_t,
        "trace.requests": len(traced),
    }
    metrics = {}
    for metric, unit in per_layer_names():
        if metric in extra:
            value = extra[metric]
        else:
            span, stat = metric.rsplit(".", 1)
            value = stats.get(span, (0, 0.0, 0.0))[{"calls": 0, "s": 1, "self_s": 2}[stat]]
        metrics[metric] = (value, unit)
    info = {"absent": tracer.absent, "traced_cycles": n, "span_file": f".perfbench_out/spans-{name}.jsonl"}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg = os.getloadavg()
    problem = import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(workloads.WORKLOADS[args.workload](args.seed, workdir))
        if args.trace:
            metrics, info = measure_traced(client, Tracer(), workdir, args.seconds, args.workload)
        else:
            metrics, info = measure(client, workdir, args.seconds)
        manifest = digests(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = len(client.failures)
    cycle = len(client.workload.kinds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({cycle}-request cycle)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if "pace" in info:
        p99, beyond = info["latency_p99_ms"], info["p99_samples_beyond"]
        print(f"  {'latency_p99_ms':<44} {p99:>16.6g} ms  ({beyond} samples beyond)")
        print(f"  {'host pace of the timed requests':<44} {info['pace']:>16.6g}")
        for name, value in info["raw"].items():
            print(f"  {name + ' before pace':<44} {value:>16.6g}")
    rate = failed / client.attempted
    print(f"  {'error_rate':<44} {rate:>16.6g} ratio  ({failed} of {client.attempted} failed)")
    detail = {
        "provenance": provenance(args.seed, loadavg),
        "info": info,
        "error_rate": rate,
        "failures": client.failures[:20],
        "digests": manifest,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

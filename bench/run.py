"""Benchmark of the iasi command line, one workload per process.

    python3 bench/run.py --workload cli-sparse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload in turn, exit 1 on any failure

Runs from the root of a source checkout and imports ``iasi`` from its
``src/``.  Whole passes over the workload's CLI operations repeat, an
untimed warm-up first, until the next pass would end after
``--seconds``, and every output is checked after its pass.  Set-up (a
fresh import of the package plus input generation) is timed on its own
and repeated between passes, spread over the run.  The last line of
standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 15
MIN_PASSES = 3

# per-layer metrics: exact counts, which must repeat between passes
COUNTS = {
    "graphs.neighbors.calls": ("calls", "graphs.neighbors"),
    "sets.sumset.calls": ("calls", "sets.sumset"),
    "sets.sumset.pairs": ("counts", "sets.sumset.pairs"),
    "sets.detect_ap.calls": ("calls", "sets.detect_ap"),
    "sets.ap_set.calls": ("calls", "sets.ap_set"),
    "labeling.edge_label.calls": ("calls", "labeling.edge_label"),
    "compat.compat_partition.calls": ("calls", "compat.compat_partition"),
    "compat.pairs": ("counts", "compat.pairs"),
    "cli.main.calls": ("calls", "cli.main"),
}
SELF_TIMES = (
    "graphs.neighbors", "graphs.bipartition", "graphs.components",
    "sets.sumset", "sets.detect_ap", "sets.ap_set",
    "verify.classify", "construct.construct", "construct.search",
    "compat.compat_partition", "compat.audit",
    "io.parse_graph", "io.parse_labeling", "io.serialize_labeling", "io.serialize_audit",
    "cli.main",
)
UNITS = {"_s": "s", ".calls": "count", ".pairs": "count", "_per_edge": "sumsets/edge",
         "_bytes": "bytes", "_digits": "digits", "_mb": "MB"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def fresh_import() -> None:
    """Import iasi from this checkout as a first import would."""
    for name in [m for m in sys.modules if m == "iasi" or m.startswith("iasi.")]:
        del sys.modules[name]
    cli = importlib.import_module("iasi.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported iasi from {cli.__file__}, not from {SRC}")


def timed_setup(name: str, seed: int, tmp: Path, tiny: bool) -> tuple[float, workloads.Workload]:
    """One set-up: a fresh import of the package plus the workload's inputs."""
    t0 = time.perf_counter()
    fresh_import()
    wl = workloads.build(name, seed, tmp, tiny)
    return time.perf_counter() - t0, wl


def run_pass(wl: workloads.Workload, tracer: Tracer | None) -> tuple[float, float, list]:
    """Run every operation once; return wall, cpu and (rc, error, seconds) per op."""
    cli = sys.modules["iasi.cli"]
    results = []
    for op in wl.ops:  # a failed write must not leave the last pass's output
        op.out.unlink(missing_ok=True)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        cpu0, t0 = time.process_time(), time.perf_counter()
        for op in wl.ops:
            start = time.perf_counter()
            try:
                rc, error = cli.main(op.argv), None
            except Exception:  # an operation that raises counts as failed
                rc, error = None, traceback.format_exc()
            results.append((rc, error, time.perf_counter() - start))
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, results


class Checker:
    """Checks each pass's outputs and that they repeat from pass to pass."""

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.digests: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        self.labeling_bytes = 0
        self.max_element_digits = 0

    def check_pass(self, results: list) -> None:
        digests = []
        for i, (op, (rc, error, _)) in enumerate(zip(self.wl.ops, results)):
            self.attempted += 1
            problem = error
            data = op.out.read_bytes() if op.out.is_file() else None
            digests.append(hashlib.sha256(data).hexdigest() if data is not None else None)
            if problem is None and rc != op.expect_rc:
                problem = f"exit status {rc}, expected {op.expect_rc}"
            if problem is None and data is None:
                problem = "no output written"
            if problem is None and op.check is not None:
                try:
                    problem = op.check(data.decode())
                except Exception as exc:  # unreadable output fails its operation
                    problem = f"check raised {exc!r}"
            if problem is None and self.digests and digests[i] != self.digests[i]:
                problem = "output differs from the first pass"
            if problem is not None:
                self.failed += 1
                print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        if not self.digests:
            self.digests = digests
            self._measure_labelings()

    def _measure_labelings(self) -> None:
        for op in self.wl.ops:
            if op.labeling and op.out.is_file():
                text = op.out.read_text()
                self.labeling_bytes += len(text.encode())
                digits = max((len(x) for line in text.splitlines()
                              for x in line.partition(":")[2].split()), default=0)
                self.max_element_digits = max(self.max_element_digits, digits)


def layer_snapshot(tracer: Tracer, checker: Checker, results: list) -> dict[str, float]:
    snap: dict[str, float] = {}
    for metric, (table, key) in COUNTS.items():
        snap[metric] = getattr(tracer, table)[key]
    for layer in ("verify.classify", "construct.construct"):
        edges = tracer.counts[layer + ".edges"]
        snap[layer.split(".")[0] + ".sumsets_per_edge"] = (
            tracer.counts[layer + ".sumsets"] / edges if edges else 0.0)
    snap["io.labeling_bytes"] = checker.labeling_bytes
    snap["io.max_element_digits"] = checker.max_element_digits
    for layer in SELF_TIMES:
        snap[layer + ".self_s"] = tracer.self_s[layer]
    for verb in ("label", "verify"):
        snap[f"cli.{verb}_s"] = sum(
            seconds for op, (_, _, seconds) in zip(checker.wl.ops, results) if op.argv[0] == verb)
    return snap


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; return the result object."""
    os.environ.pop("IASI_SEED", None)  # inputs come from --seed alone
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        setup_s, wl = timed_setup(name, seed, Path(tmp), tiny)
        setups = [setup_s]
        checker = Checker(wl)
        start = time.perf_counter()
        warm_wall, _, results = run_pass(wl, None)  # warm-up: checked, not timed
        checker.check_pass(results)
        walls: dict[bool, list[float]] = {False: [], True: []}
        cpus: list[float] = []
        snaps: list[dict[str, float]] = []
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            tracer = Tracer() if traced else None
            wall, cpu, results = run_pass(wl, tracer)
            checker.check_pass(results)
            walls[traced].append(wall)
            if traced:
                snaps.append(layer_snapshot(tracer, checker, results))
            else:
                cpus.append(cpu)
            # repeat set-up between passes, spread over the run as the passes are
            share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
            while len(setups) < SETUP_REPEATS * share:
                setups.append(timed_setup(name, seed, Path(tmp), tiny)[0])
            done = min(len(walls[True]), len(walls[False])) if trace else len(walls[False])
            # stop before a pass that would run past --seconds, so runs keep their length
            next_pass = max(warm_wall, *walls[False], *walls[True])
            if (time.perf_counter() - start + next_pass > seconds
                    and done >= (2 if trace else MIN_PASSES)):
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(timed_setup(name, seed, Path(tmp), tiny)[0])

    metrics: dict[str, float] = {}
    if trace:
        for key in snaps[0]:
            values = [s[key] for s in snaps]
            if key.endswith("_s"):
                metrics[key] = statistics.median(values)
            else:
                metrics[key] = values[0]
                if any(v != values[0] for v in values):
                    checker.failed += 1
                    print(f"FAILED count {key} varies between passes: {values}", file=sys.stderr)
        metrics["trace.wall_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = statistics.median(walls[False])
        metrics["cpu_s"] = statistics.median(cpus)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name, "seed": seed, "inputs": wl.inputs,
        "passes": len(walls[False]) + len(walls[True]), "pass_walls": walls[False],
        "setups": setups,
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    fail_rate = result["failed"] / result["attempted"]
    print(f"# workload={result['workload']} seed={result['seed']} inputs={result['inputs']} "
          f"passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_rate={fail_rate:g}")
    print("# untraced pass wall times (s):", " ".join(f"{w:.4f}" for w in result["pass_walls"]))
    print("# set-up times (s):", " ".join(f"{s:.4f}" for s in result["setups"]))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.BUILDERS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (SRC / "iasi" / "__init__.py").is_file():
        print(f"error: no iasi sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in workloads.BUILDERS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return 1 if status else 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

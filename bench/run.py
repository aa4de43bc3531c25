"""The repo's benchmark: four seeded workloads measured on both clocks.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` (the default) a workload runs again and again for
``--seconds`` and the end-to-end metrics are printed: host (wall)
metrics as medians over those runs, simulated metrics from the ledger,
exact for a seed. ``--trace 1`` alternates an untraced run with a
traced one instead and prints the per-layer metrics. Every metric is
printed by name with its unit; the last line of standard output is one
JSON result. The command exits non-zero when an output check fails.

Several workloads (all four by default) run one after another, each in
a fresh interpreter of its own. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One interpreter, one core: no thread pools in numeric libraries.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import LAYER_NAMES, LAYERS, SpanRecorder

try:
    import workloads
except ImportError as _error:  # the program under src/ is not there
    workloads = None
    _IMPORT_ERROR: Optional[ImportError] = _error
else:
    _IMPORT_ERROR = None

#: Scratch directory, relative to the checkout root: store files of the
#: PalDB legs and of the traffic runs, and written span traces. Four
#: letters long like ``/tmp``, so store paths (whose length the
#: simulated relays pay for) are as long as in the traffic ablation.
WORKDIR = "btmp"

#: Set-up-only runs before the timed runs: they warm lazy set-up and
#: add set-up samples, so ``setup_s`` is a median of several.
SETUP_ROUNDS = 3

#: Timed runs per invocation, however long they take: a median of three
#: outlasts one run slowed by a noisy neighbour on a shared machine.
MIN_TIMED_RUNS = 3

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("host_rps", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virt_us_per_op", "sim_us"),
    ("virt_p50_us", "sim_us"),
    ("virt_p999_us", "sim_us"),
    ("virt_goodput_rps", "ops/sim_s"),
    ("crossings_per_op", "count"),
)

#: Ledger groups for ``virt.<group>_ns_per_op``; the rest is "other".
VIRT_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("transition", ("transition.ecall", "transition.ocall")),
    ("switchless", ("transition.switchless",)),
    ("rmi", ("rmi",)),
    ("os", ("os",)),
    ("sgx", ("sgx",)),
    ("compute", ("compute", "memory", "alloc")),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple(
        (f"{layer}.{suffix}", unit)
        for layer in LAYER_NAMES
        for suffix, unit in (("calls", "count"), ("self_share", "ratio"))
    )
    + (("unattributed.share", "ratio"), ("trace_overhead", "ratio"))
    + tuple(
        (f"virt.{group}_ns_per_op", "sim_ns")
        for group in [name for name, _ in VIRT_GROUPS] + ["other"]
    )
    + (
        ("ecalls_per_op", "count"),
        ("ocalls_per_op", "count"),
        ("switchless_per_op", "count"),
        ("workers.fallback_ratio", "ratio"),
        ("admission.admit_ratio", "ratio"),
        ("epc.hit_ratio", "ratio"),
        ("batching.calls_per_crossing", "ratio"),
        ("scheduler.steps_per_request", "count"),
    )
)


def _under(category: str, prefix: str) -> bool:
    return category == prefix or category.startswith(prefix + ".")


def _ledger_sum(ledger: Dict[str, List[float]], prefixes, column: int) -> float:
    """Sum one column (0: count, 1: ns) over categories under ``prefixes``."""
    return sum(
        entry[column]
        for category, entry in ledger.items()
        if any(_under(category, prefix) for prefix in prefixes)
    )


# -- metrics -------------------------------------------------------------------


def end_to_end_metrics(outcomes: List[Any], setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics over repeated runs of one workload and seed."""
    first = outcomes[0]
    done = max(1, first.completed)
    within = sum(
        count for value, count in first.latency_ns.items()
        if value <= workloads.LIMIT_NS
    )
    timed_ns = sum(entry[1] for entry in first.timed_ledger.values())
    return {
        "host_rps": statistics.median(o.ops / o.timed_s for o in outcomes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virt_us_per_op": timed_ns / done / 1e3,
        "virt_p50_us": workloads.percentile_ns(first.latency_ns, 50.0) / 1e3,
        "virt_p999_us": workloads.percentile_ns(first.latency_ns, 99.9) / 1e3,
        "virt_goodput_rps": within / (first.span_ns / 1e9),
        "crossings_per_op": _ledger_sum(first.timed_ledger, ("transition",), 0) / done,
    }


def layer_metrics(
    plain: Any, recorder: SpanRecorder, plain_wall_ns: int, traced_wall_ns: int
) -> Dict[str, float]:
    """Per-layer metrics of one untraced/traced pair of runs."""
    metrics: Dict[str, float] = {}
    shares = recorder.shares(traced_wall_ns)
    for index, layer in enumerate(LAYER_NAMES):
        metrics[f"{layer}.calls"] = recorder.calls[index]
        metrics[f"{layer}.self_share"] = shares[layer]
    metrics["unattributed.share"] = shares["unattributed"]
    metrics["trace_overhead"] = traced_wall_ns / plain_wall_ns
    done = max(1, plain.completed)
    ledger = plain.timed_ledger
    for group, prefixes in VIRT_GROUPS:
        metrics[f"virt.{group}_ns_per_op"] = _ledger_sum(ledger, prefixes, 1) / done
    grouped = [prefix for _, prefixes in VIRT_GROUPS for prefix in prefixes]
    metrics["virt.other_ns_per_op"] = sum(
        entry[1]
        for category, entry in ledger.items()
        if not any(_under(category, prefix) for prefix in grouped)
    ) / done
    for name, prefix in (
        ("ecalls_per_op", "transition.ecall"),
        ("ocalls_per_op", "transition.ocall"),
        ("switchless_per_op", "transition.switchless"),
    ):
        metrics[name] = _ledger_sum(ledger, (prefix,), 0) / done
    stats = plain.stats
    metrics["workers.fallback_ratio"] = stats.get("fallback_ratio", 0.0)
    metrics["admission.admit_ratio"] = (plain.ops - plain.shed) / plain.ops
    metrics["epc.hit_ratio"] = stats["epc_hits"] / max(1, stats["epc_accesses"])
    metrics["batching.calls_per_crossing"] = stats["logical_calls"] / max(
        1, stats["crossings"]
    )
    metrics["scheduler.steps_per_request"] = stats.get("steps", 0) / plain.ops
    return metrics


def trace_checks(plain: Any, traced: Any, recorder: SpanRecorder) -> List[str]:
    """The traced run must not perturb the simulation, and its span
    counts must match the ledger's (a missed binding shows here)."""
    errors = []
    if traced.fingerprint() != plain.fingerprint():
        errors.append("traced run's simulated outputs differ from the untraced run's")
    if recorder.covers("sgx.transitions"):
        # Shim relays charge transition.ocall.shim.* directly, not
        # through the transition layer.
        ledger_count = _ledger_sum(traced.ledger, ("transition",), 0) - _ledger_sum(
            traced.ledger, ("transition.ocall.shim",), 0
        )
        spans = recorder.layer_calls("sgx.transitions")
        if spans != ledger_count:
            errors.append(
                f"sgx.transitions saw {spans} calls but the ledger counts "
                f"{ledger_count:.0f} crossings"
            )
    epc_spans = recorder.layer_calls("sgx.epc")
    if recorder.covers("sgx.epc") and epc_spans != traced.stats["epc_accesses"]:
        errors.append(
            f"sgx.epc saw {epc_spans} calls but the EPC counts "
            f"{traced.stats['epc_accesses']:.0f} touches"
        )
    return errors


# -- measurement -----------------------------------------------------------------


class Run:
    """Repeated runs of one workload and seed, with their tallies."""

    def __init__(self, name: str, seed: int, size: int = 0) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.notes: List[str] = []

    def once(self, setup_only: bool = False) -> Any:
        offered = 0 if setup_only else workloads.offered_ops(self.name, self.size)
        self.attempted += offered
        try:
            out = workloads.run_workload(
                self.name, self.seed, WORKDIR, size=self.size, setup_only=setup_only
            )
        except Exception:
            self.failed += offered
            raise
        self.failed += out.failed
        self.errors.extend(out.errors)
        return out

    def repeat(
        self, seconds: float, body: Callable[[], Any], at_least: int = 1
    ) -> List[Any]:
        """Call ``body`` until another call would overrun ``seconds``,
        and at least ``at_least`` times."""
        results = []
        began = time.perf_counter()
        while True:
            started = time.perf_counter()
            results.append(body())
            now = time.perf_counter()
            if len(results) >= at_least and now - began + (now - started) > seconds:
                return results

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        setups = [self.once(setup_only=True).setup_s for _ in range(SETUP_ROUNDS)]
        outcomes = self.repeat(seconds, self.once, at_least=MIN_TIMED_RUNS)
        setups.extend(o.setup_s for o in outcomes)
        if len({o.fingerprint() for o in outcomes}) != 1:
            self.errors.append("repeated runs of one seed gave different outputs")
        first = outcomes[0]
        self.notes.extend(first.notes)
        samples = sum(first.latency_ns.values())
        self.notes.append(
            f"{len(outcomes)} timed runs, {len(setups)} set-ups; "
            f"{samples} latency samples, {first.shed} shed"
        )
        return end_to_end_metrics(outcomes, setups)

    def per_layer(self, seconds: float) -> Dict[str, float]:
        path = os.path.join(WORKDIR, f"spans-{self.name}-seed{self.seed}.json")

        def pair() -> Dict[str, float]:
            started = time.perf_counter_ns()
            plain = self.once()
            plain_wall = time.perf_counter_ns() - started
            recorder = SpanRecorder()
            with recorder.installed():
                started = time.perf_counter_ns()
                traced = self.once()
                traced_wall = time.perf_counter_ns() - started
            self.errors.extend(trace_checks(plain, traced, recorder))
            if not os.path.exists(path):
                recorder.write(
                    path, workload=self.name, seed=self.seed, wall_ns=traced_wall
                )
                self.notes.append(f"spans of the first traced run: {path}")
                if recorder.missing:
                    self.notes.append(
                        "entry points not found: " + ", ".join(recorder.missing)
                    )
            return layer_metrics(plain, recorder, plain_wall, traced_wall)

        if os.path.exists(path):
            os.remove(path)
        pairs = self.repeat(seconds, pair)
        return {name: statistics.median(p[name] for p in pairs) for name, _ in PER_LAYER}


def report(
    metrics: Dict[str, float], units: Dict[str, str], run: Run, correct: bool
) -> Dict[str, Any]:
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    for note in run.notes:
        print(f"# {note}")
    for error in run.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_one(name: str, seed: Optional[int], seconds: float, trace: int) -> int:
    run = Run(name, workloads.DEFAULT_SEED[name] if seed is None else seed)
    os.makedirs(WORKDIR, exist_ok=True)
    metrics: Dict[str, float] = {}
    try:
        if trace:
            metrics = run.per_layer(seconds)
        else:
            metrics = run.end_to_end(seconds)
    except Exception as exc:  # noqa: BLE001 - reported as a failed workload
        traceback.print_exc()
        run.errors.append(f"{name} raised {type(exc).__name__}: {exc}")
        metrics = {}
    correct = not run.errors and run.failed == 0 and run.attempted > 0
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"== {name} seed={run.seed} trace={trace}")
    result = report(metrics, units, run, correct)
    print(json.dumps(result))
    return 0 if correct else 1


def run_each(names: List[str], args: argparse.Namespace) -> int:
    """One fresh interpreter per workload, one after another."""
    results = {}
    for name in names:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        results[name]["correct"] = results[name]["correct"] and child.returncode == 0
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=workloads.NAMES if workloads else None,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, help="input seed (default: per workload)")
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="how long to repeat the workload (default: 25)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: untraced/traced pairs and per-layer metrics",
    )
    args = parser.parse_args(argv)
    if _IMPORT_ERROR is not None:
        print(f"bench: cannot import the program from src/: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = args.workload or list(workloads.NAMES)
    if len(names) > 1:
        return run_each(names, args)
    return run_one(names[0], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

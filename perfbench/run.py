"""Benchmark for qhaar: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; the program is imported from
``src/`` as it stands, nothing is installed.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` a shorter operation list runs untraced, then with spans
around the calls into each module, then untraced again, and the metrics
are per layer.
The environment record, the failure ledger and (traced) the spans go to
``perfbench/results/``; the ledger is also printed to stderr.

End-to-end metrics: after one untimed warm-up operation the list runs as
many times as the workload says, and an operation's latency is the median
of its timings.  ``setup_s`` is the median wall time of a fresh
interpreter running the cheapest command; ``sweep_s`` the wall time of the
operation list, summed from the latencies (as the number of groups times
the median group, where a workload's groups are alike); ``op_p50_s`` the
median latency; ``peak_rss_mb`` the process's peak resident memory.

An operation fails when it raises, exits non-zero, reports a row with
``passed: false`` or misses one of the benchmark's reference checks.
``correct`` is false only when a reference check missed: the program
returned a value that disagrees with an independent closed form.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import random
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLOCK = time.perf_counter
SETUP_RUNS = 5
IMPORT_RUNS = 3
# op_p50_s needs at least ten samples beyond the median
MIN_OPS = 21
# a traced run measures its list three times, so its list is shorter
TRACE_SHARE = 0.25

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# functions wrapped in the traced run, by defining module
TRACED = {
    "cli": ("main",),
    "haarverify": (
        "verify", "thm4_measure", "thm5_measure", "thm6_measure", "gamma_measure",
        "bailey_raw_check", "bailey_variant_residuals", "mass_identity_check", "support_check",
    ),
    "qsu2rep": ("build_rep", "element", "haar_trace", "verify_structure"),
    "orthopoly": (
        "aw_measure", "aw_integrate", "cqh_poisson", "cqh_poisson_series", "asc_poisson",
        "asc_poisson_series",
    ),
    "qseries": ("qpoch", "phi_rs", "w87", "q_integral"),
    "spectral": ("check_truncation",),
}
LAYERS = ("cli", "haarverify", "qsu2rep", "orthopoly", "qseries", "spectral")
# dense complex matmuls element() spends on each element
ELEMENT_MATMULS = {"cocentral": 0, "gamma_star_gamma": 1, "rho_tau_inf": 3, "rho_tau_sigma": 9}
MEASURE_SPANS = ("haarverify.thm4_measure", "haarverify.thm5_measure",
                 "haarverify.thm6_measure", "haarverify.gamma_measure")
IDENTITY_SPANS = ("haarverify.bailey_raw_check", "haarverify.bailey_variant_residuals",
                  "haarverify.mass_identity_check")
POISSON_SPANS = ("orthopoly.cqh_poisson", "orthopoly.cqh_poisson_series",
                 "orthopoly.asc_poisson", "orthopoly.asc_poisson_series")

PER_LAYER_UNITS = {
    "qsu2rep.element.s": "s", "qsu2rep.element.calls": "count", "qsu2rep.build_rep.s": "s",
    "qsu2rep.powers.self_s": "s", "qsu2rep.haar_trace.calls": "count",
    "qsu2rep.dense_flop": "flop", "qsu2rep.verify_structure.s": "s",
    "qsu2rep.matrix_mb": "MB", "qsu2rep.share": "ratio",
    "cli.self_s": "s", "cli.calls": "count", "cli.eigh_s": "s", "cli.exit_nonzero": "count",
    "setup.import_numpy_s": "s", "setup.import_scipy_s": "s", "setup.import_qhaar_s": "s",
    "orthopoly.aw_measure.s": "s", "orthopoly.aw_measure.calls": "count",
    "orthopoly.aw_measure.node_yield": "ratio", "orthopoly.aw_integrate.s": "s",
    "orthopoly.integrand_evals": "count", "orthopoly.poisson.s": "s",
    "orthopoly.mass_points": "count",
    "qseries.qpoch.calls": "count", "qseries.qpoch.s": "s", "qseries.phi_rs.s": "s",
    "qseries.w87.calls": "count", "qseries.w87.s": "s", "qseries.q_integral.calls": "count",
    "qseries.q_integral.s": "s",
    "haarverify.support_check.s": "s", "haarverify.verify.self_s": "s",
    "haarverify.measure.s": "s", "haarverify.identity.s": "s", "haarverify.rows": "count",
    "haarverify.rows_failed": "count", "haarverify.max_rel_err": "ratio",
    "spectral.check_truncation.calls": "count", "spectral.trunc_margin": "count",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "fail_ratio": "ratio", "trace.overhead": "ratio",
}


@dataclass
class Outcome:
    label: str
    failures: list
    timings: list[float]

    @property
    def seconds(self) -> float:
        return statistics.median(self.timings)


@dataclass
class Pass:
    sweep_s: float  # wall time of the first pass over the list
    outcomes: list[Outcome]

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.failures]

    @property
    def correct(self) -> bool:
        return not any(kind == "reference" for o in self.outcomes for kind, _ in o.failures)


def execute(ops, call=lambda fn: fn(), passes: int = 1) -> Pass:
    """Run the list ``passes`` times, closed loop; ``call`` lets the traced pass add a span.

    The first pass judges each op's output.  Later passes only time the ops
    marked ``retimed``; an op's latency is the median of its timings.
    """
    try:  # one untimed warm-up operation
        call(ops[0].run)
    except Exception:
        pass
    outcomes = []
    start = CLOCK()
    for op in ops:
        t0 = CLOCK()
        try:
            value = call(op.run)
        except Exception as exc:
            seconds = CLOCK() - t0
            failures = [("raised", f"{type(exc).__name__}: {exc}")]
        else:
            seconds = CLOCK() - t0
            try:
                failures = op.check(value)
            except (KeyError, TypeError, ValueError) as exc:
                failures = [("reference", f"unreadable output: {type(exc).__name__}: {exc}")]
        outcomes.append(Outcome(op.label, failures, [seconds]))
    sweep_s = CLOCK() - start
    for _ in range(passes - 1):
        for op, outcome in zip(ops, outcomes):
            if not op.retimed:
                continue
            t0 = CLOCK()
            try:
                call(op.run)
            except Exception:
                continue
            outcome.timings.append(CLOCK() - t0)
    return Pass(sweep_s, outcomes)


class Counters:
    """Counts taken by the traced run's hooks; pool threads update them too."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.values[key] = self.values.get(key, 0) + amount

    def extreme(self, key: str, value: float, pick) -> None:
        with self._lock:
            self.values[key] = pick(self.values.get(key, value), value)


def _degree(coeffs) -> int:
    return max((i for i, c in enumerate(list(coeffs)) if c != 0), default=0)


def make_hooks(counters: Counters, min_truncation) -> dict:
    def cli_main(args, code):
        counters.add("cli.exit_nonzero", int(code != 0))

    def verify(args, report):
        counters.add("haarverify.rows", len(report.rows))
        counters.add("haarverify.rows_failed", sum(not r.passed for r in report.rows))
        for r in report.rows:
            counters.extreme("haarverify.max_rel_err", r.rel_err, max)

    def element(args, matrix):
        n = args["rep"].size + 1
        counters.add("qsu2rep.dense_flop", ELEMENT_MATMULS.get(args["name"], 0) * 8 * n**3)
        counters.extreme("qsu2rep.matrix_mb", matrix.nbytes / 1e6, max)

    def haar_trace(args, value):
        deg = _degree(args["coeffs"])
        phases = args["phi_count"] or 4 * deg + 4
        counters.add("qsu2rep.dense_flop", phases * deg * 8 * (args["size"] + 1) ** 3)

    def aw_measure(args, spec):
        kept = len(spec.theta_nodes)
        counters.add("orthopoly.nodes_kept", kept)
        # the node count doubles from start_nodes until the mass settles
        counters.add("orthopoly.nodes_evaluated", 2 * kept - args["start_nodes"])
        counters.add("orthopoly.mass_points", len(spec.masses))

    def aw_integrate(args, value):
        spec = args["spec"]
        nodes = len(spec.theta_nodes) * (3 if args["refine_check"] is not None else 1)
        counters.add("orthopoly.integrand_evals", nodes + len(spec.masses))

    def check_truncation(args, value):
        needed = min_truncation(args["degree"], args["tol"], args["q"])
        counters.extreme("spectral.trunc_margin", args["size"] - needed, min)

    return {
        "cli.main": cli_main,
        "haarverify.verify": verify,
        "qsu2rep.element": element,
        "qsu2rep.haar_trace": haar_trace,
        "orthopoly.aw_measure": aw_measure,
        "orthopoly.aw_integrate": aw_integrate,
        "spectral.check_truncation": check_truncation,
    }


def traced_pass(ops, qhaar_modules: dict):
    import numpy

    counters = Counters()
    tracer = spans.Tracer(CLOCK, make_hooks(counters, qhaar_modules["spectral"].min_truncation))
    targets = {f"{mod}.{fn}": getattr(qhaar_modules[mod], fn) for mod, fns in TRACED.items() for fn in fns}
    tracer.install(qhaar_modules.values(), targets)
    # only cli calls numpy.linalg.eigh
    tracer.patch(numpy.linalg, "eigh", tracer.wrap("cli.eigh", numpy.linalg.eigh))
    tracer.patch(qhaar_modules["cli"], "ThreadPoolExecutor", tracer.pool_class())
    try:
        result = execute(ops, lambda fn: tracer.call("bench.op", fn, (), {}))
    finally:
        tracer.uninstall()
    return result, tracer.spans, counters.values


def layer_metrics(all_spans, counts: dict, traced: Pass, plain_s: float, imports: dict) -> dict:
    # drop the warm-up op's spans: the first bench.op span and its subtree
    first = min(s.id for s in all_spans if s.name == "bench.op")
    parents = {s.id: s.parent for s in all_spans}

    def in_warmup(span_id):
        while span_id is not None:
            if span_id == first:
                return True
            span_id = parents.get(span_id)
        return False

    sp = [s for s in all_spans if not in_warmup(s.id)]
    calls: dict[str, int] = {}
    for s in sp:
        calls[s.name] = calls.get(s.name, 0) + 1

    def cov(*names):
        return spans.covered_time(sp, names)

    verify_ids = {s.id for s in sp if s.name == "haarverify.verify"}
    measure_in_verify = [s for s in sp if s.parent in verify_ids
                         and s.name in ("orthopoly.aw_measure", "orthopoly.aw_integrate")]
    measure_s = spans.union_length(
        [(s.start, s.end) for s in sp if s.name in MEASURE_SPANS]
        + [(s.start, s.end) for s in measure_in_verify]
    )
    kept = counts.get("orthopoly.nodes_kept", 0)
    evaluated = counts.get("orthopoly.nodes_evaluated", 0)
    errors = {layer: 0 for layer in LAYERS}
    for s in sp:
        layer = s.name.split(".")[0]
        if s.error and layer in errors:
            errors[layer] += 1
    attempted = len(traced.outcomes)
    values = {
        "qsu2rep.element.s": cov("qsu2rep.element"),
        "qsu2rep.element.calls": calls.get("qsu2rep.element", 0),
        "qsu2rep.build_rep.s": cov("qsu2rep.build_rep"),
        "qsu2rep.powers.self_s": spans.self_time(sp, "qsu2rep.haar_trace"),
        "qsu2rep.haar_trace.calls": calls.get("qsu2rep.haar_trace", 0),
        "qsu2rep.dense_flop": counts.get("qsu2rep.dense_flop", 0),
        "qsu2rep.verify_structure.s": cov("qsu2rep.verify_structure"),
        "qsu2rep.matrix_mb": counts.get("qsu2rep.matrix_mb", 0.0),
        "qsu2rep.share": cov("qsu2rep.element", "qsu2rep.build_rep", "qsu2rep.haar_trace") / traced.sweep_s,
        "cli.self_s": spans.self_time(sp, "cli.main"),
        "cli.calls": calls.get("cli.main", 0),
        "cli.eigh_s": cov("cli.eigh"),
        "cli.exit_nonzero": counts.get("cli.exit_nonzero", 0),
        "setup.import_numpy_s": imports["numpy"],
        "setup.import_scipy_s": imports["scipy"],
        "setup.import_qhaar_s": imports["qhaar"],
        "orthopoly.aw_measure.s": cov("orthopoly.aw_measure"),
        "orthopoly.aw_measure.calls": calls.get("orthopoly.aw_measure", 0),
        "orthopoly.aw_measure.node_yield": kept / evaluated if evaluated else 0.0,
        "orthopoly.aw_integrate.s": cov("orthopoly.aw_integrate"),
        "orthopoly.integrand_evals": counts.get("orthopoly.integrand_evals", 0),
        "orthopoly.poisson.s": cov(*POISSON_SPANS),
        "orthopoly.mass_points": counts.get("orthopoly.mass_points", 0),
        "qseries.qpoch.calls": calls.get("qseries.qpoch", 0),
        "qseries.qpoch.s": cov("qseries.qpoch"),
        "qseries.phi_rs.s": cov("qseries.phi_rs"),
        "qseries.w87.calls": calls.get("qseries.w87", 0),
        "qseries.w87.s": cov("qseries.w87"),
        "qseries.q_integral.calls": calls.get("qseries.q_integral", 0),
        "qseries.q_integral.s": cov("qseries.q_integral"),
        "haarverify.support_check.s": cov("haarverify.support_check"),
        "haarverify.verify.self_s": spans.self_time(sp, "haarverify.verify"),
        "haarverify.measure.s": measure_s,
        "haarverify.identity.s": cov(*IDENTITY_SPANS),
        "haarverify.rows": counts.get("haarverify.rows", 0),
        "haarverify.rows_failed": counts.get("haarverify.rows_failed", 0),
        "haarverify.max_rel_err": counts.get("haarverify.max_rel_err", 0.0),
        "spectral.check_truncation.calls": calls.get("spectral.check_truncation", 0),
        # 0 when nothing checked a truncation
        "spectral.trunc_margin": counts.get("spectral.trunc_margin", 0),
        **{f"{layer}.errors": n for layer, n in errors.items()},
        "fail_ratio": len(traced.failed) / attempted,
        "trace.overhead": traced.sweep_s / plain_s,
    }
    return values


def groups_for(workload, seconds: float, trace: bool) -> int:
    """Groups in the op list: ``seconds`` of nominal work over all passes."""
    if trace:
        return math.ceil(seconds * TRACE_SHARE / workload.group_seconds)
    groups = math.ceil(seconds / (workload.passes * workload.group_seconds))
    return max(groups, math.ceil(MIN_OPS / workload.group_size))


def sweep_seconds(workload, latencies: list[float]) -> float:
    """Wall time of the op list, summed from op latencies.  Where the groups
    are alike in cost, the number of groups times the median group, so that
    a burst of host contention in one group does not move it."""
    if not workload.alike_groups:
        return sum(latencies)
    size = workload.group_size
    groups = [sum(latencies[i:i + size]) for i in range(0, len(latencies), size)]
    return len(groups) * statistics.median(groups)


def ledger(result: Pass) -> list[dict]:
    return [{"op": o.label, "seconds": o.seconds, "failures": [list(f) for f in o.failures]}
            for o in result.failed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qhaar" / "__init__.py").is_file():
        print(f"error: no qhaar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qhaar

    modules = {"qhaar": qhaar, **{m: importlib.import_module(f"qhaar.{m}") for m in LAYERS}}
    workload = WORKLOADS[args.workload]
    ops = workload.build(random.Random(args.seed), groups_for(workload, args.seconds, bool(args.trace)), qhaar)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operations": len(ops), "environment": machine.environment(ROOT)}

    if args.trace:
        imports = machine.import_times(ROOT, IMPORT_RUNS)
        # untraced passes on both sides of the traced one, so that drift in
        # machine speed during the run cancels out of trace.overhead
        before = execute(ops)
        result, all_spans, counts = traced_pass(ops, modules)
        after = execute(ops)
        plain_s = (before.sweep_s + after.sweep_s) / 2
        values = layer_metrics(all_spans, counts, result, plain_s, imports)
        units = PER_LAYER_UNITS
        record["untraced_failed"] = [len(before.failed), len(after.failed)]
    else:
        setup = machine.setup_times(ROOT, SETUP_RUNS)
        result = execute(ops, passes=workload.passes)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "sweep_s": sweep_seconds(workload, [o.seconds for o in result.outcomes]),
            "op_p50_s": statistics.median(o.seconds for o in result.outcomes),
            "peak_rss_mb": peak_kib * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
        record["setup_samples_s"] = setup
        record["sweep_wall_s"] = result.sweep_s
        record["fail_ratio"] = len(result.failed) / len(result.outcomes)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = result.correct and (not args.trace or (before.correct and after.correct))
    out = {"correct": correct, "attempted": len(result.outcomes),
           "failed": len(result.failed), "metrics": metrics}
    record.update(out, ledger=ledger(result), op_timings=[o.timings for o in result.outcomes])

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        with gzip.open(results_dir / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for s in all_spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.error]) + "\n")

    print(json.dumps({"environment": record["environment"]}, sort_keys=True), file=sys.stderr)
    for entry in record["ledger"]:
        print("failed: " + json.dumps(entry), file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"fail_ratio {len(result.failed) / len(result.outcomes):.6g} ratio "
              f"({len(result.failed)} of {len(result.outcomes)} operations)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

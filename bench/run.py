"""Benchmark of bergeham: one workload per process, one caller in a closed loop.

    python3 bench/run.py --workload tau-trap --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets the host up several times (``setup_s`` is the median), picks
one round of operations from ``--seed``, runs one untimed warm-up
operation, then repeats the whole round until ``--seconds`` have passed.
Every operation's output is checked (``checks.py``) outside its timed
interval. The last line of standard output is one JSON object; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones. A traced run runs every operation twice, back to back,
once with spans around the package's layers and once without; the
per-layer figures come from the first, the tracing overhead from the
pair.

The package is imported from the ``src`` directory beside this one and
from nowhere else; without it the run prints no result and exits with
code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from checks import CheckError
from spans import Patches, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_P90_OPS = 100


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "bergeham" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'bergeham'}")
    sys.path.insert(0, str(SRC))
    import bergeham

    if Path(bergeham.__file__).resolve().parent != SRC / "bergeham":
        _fail(f"imported bergeham from {bergeham.__file__}, not {SRC}")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(workload.setup_reps):
        gc.collect()
        t0 = time.perf_counter()
        host, gen_s, parse_s = workload.setup(seed)
        setups.append((time.perf_counter() - t0, gen_s, parse_s))
    ref = SimpleNamespace(n=host.n, edges=list(host.edges), edge_set=frozenset(host.edges))
    ops = workload.ops(host, seed)

    tracer = Tracer()
    captured: dict = {}
    signatures: dict = {}
    verdicts: dict = {}
    failures: list = []

    def one_op(op, traced: bool) -> tuple:
        """Runs and checks one operation; returns its (wall s, cpu s)."""
        captured["proc"] = None
        captured["decides"] = []
        layers = Patches()
        call = workload.run
        if traced:
            tracer.op_id += 1
            workload.trace(layers, tracer)
            call = tracer.wrap("op", call)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = call(host, op)
        except Exception:  # a crash is a failed operation, reported below
            failures.append(f"op {op!r} raised:\n{traceback.format_exc()}")
            result = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        layers.restore()
        if result is None:
            return wall, cpu
        try:
            verdict, signature = workload.check(ref, result, captured)
            if signatures.setdefault(op, signature) != signature:
                raise CheckError(f"repeat gave {signature}, first run gave {signatures[op]}")
        except CheckError as exc:
            failures.append(f"op {op!r}: {exc}")
            return wall, cpu
        verdicts.setdefault(op, verdict)
        if traced:
            workload.add_counts(tracer.counts, result)
        return wall, cpu

    capture = Patches()
    workload.capture(capture, captured)
    try:
        one_op(ops[0], traced=False)  # warm-up, not counted
        warm_failures = len(failures)
        rounds = []  # (operations, wall s, cpu s) of the untraced runs
        walls = []
        pairs = []  # (traced wall s, untraced wall s) of one operation
        attempted = 0
        start = time.perf_counter()
        # Whole rounds only; stop where the run ends nearest to --seconds.
        while not rounds or (
            time.perf_counter() - start
            < seconds - 0.5 * (time.perf_counter() - start) / len(rounds)
        ):
            gc.collect()
            order = list(ops)
            random.Random(seed * 1_000_003 + len(rounds)).shuffle(order)
            wall_sum = cpu_sum = 0.0
            for i, op in enumerate(order):
                if trace:
                    # each operation traced and untraced back to back, in
                    # alternating order, so both see the same machine state
                    first = one_op(op, traced=i % 2 == 0)[0]
                    second = one_op(op, traced=i % 2 == 1)[0]
                    pairs.append((first, second) if i % 2 == 0 else (second, first))
                    attempted += 2
                else:
                    wall, cpu = one_op(op, traced=False)
                    walls.append(wall)
                    wall_sum += wall
                    cpu_sum += cpu
                    attempted += 1
            rounds.append((len(order), wall_sum, cpu_sum))
    finally:
        capture.restore()

    for message in failures[:5]:
        print(message, file=sys.stderr)
    failed = len(failures) - warm_failures
    if trace:
        metrics = _layer_metrics(tracer, pairs, setups)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-seed{seed}.tsv")
    else:
        conclusive = sum(1 for v in verdicts.values() if v in ("yes", "no"))
        metrics = _end_to_end_metrics(rounds, walls, setups, conclusive)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _end_to_end_metrics(rounds, walls, setups, conclusive) -> dict:
    if len(walls) < MIN_P90_OPS:
        print(f"note: op_ms_p90 from {len(walls)} < {MIN_P90_OPS} operations", file=sys.stderr)
    walls = sorted(walls)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _m(statistics.median(s[0] for s in setups), "s"),
        "ops_per_s": _m(statistics.median(n / w for n, w, _ in rounds), "1/s"),
        "op_ms_p50": _m(statistics.median(walls) * 1e3, "ms"),
        "op_ms_p90": _m(p90 * 1e3, "ms"),
        "op_cpu_ms": _m(statistics.median(c / n for n, _, c in rounds) * 1e3, "ms"),
        "conclusive": _m(conclusive, "count"),
        "peak_rss_mib": _m(peak_kib / 1024.0, "MiB"),
    }


def _layer_metrics(tracer, pairs, setups) -> dict:
    traced_ops = len(pairs)
    traced_s = sum(t for t, _ in pairs)
    plain_s = sum(u for _, u in pairs)
    self_ns = tracer.self_times_ns()
    counts = tracer.counts

    def ms(span):
        return _m(self_ns.get(span, 0) / 1e6 / traced_ops, "ms")

    def per_op(count):
        return _m(counts.get(count, 0) / traced_ops, "count")

    def calls(span):
        return _m(tracer.calls(span) / traced_ops, "count")

    return {
        "generators.host_s": _m(statistics.median(s[1] for s in setups), "s"),
        "hypergraph.parse_s": _m(statistics.median(s[2] for s in setups), "s"),
        "process.order_ms": ms("process.order"),
        "process.scan_ms": ms("process.scan"),
        "process.tau2": per_op("process.tau2"),
        "process.prefix_ms": ms("process.prefix"),
        "engine.decide_calls": calls("engine.decide"),
        "engine.decide_conclusive": per_op("engine.decide_conclusive"),
        "engine.decide_ms": ms("engine.decide"),
        "engine.rotations": per_op("engine.rotations"),
        "engine.extensions": per_op("engine.extensions"),
        "engine.closures": per_op("engine.closures"),
        "engine.restarts": per_op("engine.restarts"),
        "berge.closure_ms": ms("berge.closure"),
        "berge.closure_rotations": per_op("berge.closure_rotations"),
        "berge.closure_endpoints": per_op("berge.closure_endpoints"),
        "hypergraph.build_count": calls("hypergraph.build"),
        "hypergraph.build_ms": ms("hypergraph.build"),
        "engine.extract_ms": ms("engine.extract"),
        "engine.connect_ms": ms("engine.connect"),
        "engine.absorb_steps": per_op("engine.absorb_steps"),
        "op.other_ms": ms("op"),
        "op.traced_ms": _m(tracer.total_ns("op") / 1e6 / traced_ops, "ms"),
        "trace.overhead_pct": _m(100.0 * (1.0 - plain_s / traced_s), "%"),
    }


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:26s} {entry['value']:>14.6g} {entry['unit']}")


def _run_all(args, names) -> int:
    """Each workload in a child process of its own, so that its
    peak_rss_mib is its own."""
    status = 0
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    from workloads import WORKLOADS

    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    _print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

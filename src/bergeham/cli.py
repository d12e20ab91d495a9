"""Command-line front end.

Every randomized subcommand takes an explicit seed, echoes it in its
output, and produces byte-identical artifacts when re-run with the same
arguments (including under different --jobs). Exit codes: 0 success, 1
a "no" verdict from decide/oracle, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .berge import endpoint_closure
from .engine import (
    DEFAULT_BUDGET,
    NO,
    absorption_run,
    decide_hamiltonian,
    default_d0,
    greedy_path,
)
from .generators import FAMILIES, GenSpec, GenerationError
from .hypergraph import CapacityError, Hypergraph, ParseError, parse, serialize
from .oracle import OracleGuard, exact_hamiltonian
from .process import TrialConfig, records_to_csv, run_trials
from .thresholds import PROPERTY_GUARD, property_report, threshold_report

USAGE_ERROR = 2


def _load_host(path: str) -> Hypergraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read host file {path!r}: {exc}") from exc
    return parse(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family, n=args.n, r=args.r, p=args.p, eps=args.eps, seed=args.seed
    )
    H = spec.build()
    header = (
        f"# family={args.family} n={args.n} r={args.r} "
        f"p={args.p} eps={args.eps} seed={args.seed}\n"
    )
    _emit(header + serialize(H), args.out)
    return 0


def _cmd_oracle(args) -> int:
    H = _load_host(args.host)
    guard = OracleGuard(max_n=args.max_n, max_edges=args.max_edges)
    cert = exact_hamiltonian(H, guard)
    payload = {
        "verdict": "yes" if cert else "no",
        "certificate": cert.to_json() if cert else None,
    }
    _emit(_json_line(payload), args.out)
    return 0 if cert else 1


def _cmd_decide(args) -> int:
    H = _load_host(args.host)
    outcome = decide_hamiltonian(
        H, budget=args.budget, seed=args.seed, fallback=args.fallback
    )
    payload = outcome.to_json()
    payload["seed"] = args.seed
    _emit(_json_line(payload), args.out)
    return 1 if outcome.verdict == NO else 0


def _cmd_absorb(args) -> int:
    H = _load_host(args.host)
    d0 = args.d0 if args.d0 is not None else default_d0(H.n, args.eps)
    outcome, trace = absorption_run(H, d0=d0, budget=args.budget, seed=args.seed)
    lines = [_json_line({"seed": args.seed, "d0": d0, **outcome.to_json()})]
    lines += [_json_line(entry) for entry in trace]
    _emit("".join(lines), args.out)
    return 1 if outcome.verdict == NO else 0


def _cmd_tau(args) -> int:
    H = _load_host(args.host)
    config = TrialConfig(
        probe=not args.no_probe,
        full_tau_bh=args.full_tau_bh,
        budget=args.budget,
        jobs=args.jobs,
    )
    records, summary = run_trials(H, args.trials, args.seed, config)
    csv_text = "# seed_base=%d trials=%d\n" % (args.seed, args.trials)
    csv_text += records_to_csv(records, with_timing=args.timing)
    summary_text = _json_line(summary)
    if args.out:
        _emit(csv_text, args.out + ".csv")
        _emit(summary_text, args.out + ".summary.json")
        sys.stdout.write(summary_text)
    else:
        sys.stdout.write(csv_text)
        sys.stdout.write(summary_text)
    return 0


def _cmd_thresholds(args) -> int:
    H = _load_host(args.host)
    report = threshold_report(H, args.eps, c_gamma=args.c_gamma, tol=args.tol)
    _emit(_json_line(report.to_json()), args.out)
    return 0


def _cmd_props(args) -> int:
    H = _load_host(args.host)
    report = property_report(
        H,
        args.eps,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        d0=args.d0,
        guard=args.guard,
    )
    payload = {name: res.to_json() for name, res in sorted(report.items())}
    _emit(_json_line(payload), args.out)
    return 0


def _cmd_rotate_trace(args) -> int:
    H = _load_host(args.host)
    path = greedy_path(H, budget=args.budget)
    closure = endpoint_closure(H, path, budget=args.budget)
    lines = [
        _json_line(
            {
                "event": "initial",
                "seed": args.seed,
                **path.to_json(),
            }
        )
    ]
    for endpoint, witness in closure.paths.items():
        lines.append(
            _json_line({"event": "endpoint", "endpoint": endpoint, **witness.to_json()})
        )
    lines.append(
        _json_line(
            {
                "event": "summary",
                "endpoints": len(closure.paths),
                "rotations": closure.rotations_applied,
                "budget_exhausted": closure.budget_exhausted,
            }
        )
    )
    _emit("".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergeham",
        description="Spanning Berge-cycle search and hitting-time experiments "
        "on r-uniform hypergraph processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a host family to the text format")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="exact spanning-cycle verdict (small hosts)")
    p.add_argument("--host", required=True)
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--max-edges", type=int, default=400, dest="max_edges")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("decide", help="rotation-extension search")
    p.add_argument("--host", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fallback", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("absorb", help="expander extraction plus booster absorption")
    p.add_argument("--host", required=True)
    p.add_argument("--d0", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_absorb)

    p = sub.add_parser("tau", help="Monte Carlo hitting-time trials")
    p.add_argument("--host", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--no-probe", action="store_true", dest="no_probe")
    p.add_argument("--full-tau-bh", action="store_true", dest="full_tau_bh")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("thresholds", help="window quantities for a host")
    p.add_argument("--host", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c-gamma", type=float, default=1.0, dest="c_gamma")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("props", help="structural property verdicts P1..P7")
    p.add_argument("--host", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d0", type=float, default=None)
    p.add_argument("--guard", type=int, default=PROPERTY_GUARD)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser(
        "rotate-trace", help="dump the rotation closure of a greedy path"
    )
    p.add_argument("--host", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rotate_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CapacityError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"error: {exc.code}", file=sys.stderr)
            return USAGE_ERROR
        raise


if __name__ == "__main__":
    sys.exit(main())

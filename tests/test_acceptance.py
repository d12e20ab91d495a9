"""Acceptance gate, one test per criterion; conftest prints a PASS/FAIL
line for each at the end of the run.

Derived expected values are recomputed here with independent brute-force
checks (permutation enumeration with explicit distinct-edge assignment),
never taken from the implementation under test."""

import itertools
import math
import subprocess
import sys
import time

import pytest

from bergeham.berge import endpoint_closure, verify_cycle
from bergeham.engine import decide_hamiltonian
from bergeham.generators import binomial, complete, degree_condition_random, two_cliques
from bergeham.hypergraph import Hypergraph, check_codegree_condition, is_expander, serialize
from bergeham.oracle import exact_hamiltonian, exact_longest_path
from bergeham.process import (
    NoHitError,
    TrialConfig,
    hamiltonicity_probe,
    oracle_probe,
    random_process,
    run_trials,
    tau_property,
)
from bergeham.rng import SplitMix64, derive_seed
from bergeham.thresholds import basic_thresholds, decay_sum, regular_p0_closed_form, solve_p0


# -- independent oracles for criterion 1 --------------------------------------


def _assignment_exists(pair_options, used, idx=0):
    """Plain backtracking SDR check, independent of the package matcher."""
    if idx == len(pair_options):
        return True
    for e in pair_options[idx]:
        if e not in used:
            used.add(e)
            if _assignment_exists(pair_options, used, idx + 1):
                used.discard(e)
                return True
            used.discard(e)
    return False


def brute_hamiltonian(H):
    """Spanning cyclic order with a distinct-edge assignment, by full
    enumeration over permutations fixing vertex 0."""
    n = H.n
    if n < 3 or H.num_edges < n:
        return False
    for rest in itertools.permutations(range(1, n)):
        order = (0,) + rest
        pair_options = []
        ok = True
        for i in range(n):
            u, v = order[i], order[(i + 1) % n]
            opts = [e for e in H.incidence[u] if v in H.edges[e]]
            if not opts:
                ok = False
                break
            pair_options.append(opts)
        if ok and _assignment_exists(pair_options, set()):
            return True
    return False


def test_criterion_01_oracle_self_consistency():
    started = time.perf_counter()
    rng = SplitMix64(0xACCE01)
    checked = 0
    while checked < 500:
        n = 3 + rng.below(4)  # n in 3..6
        candidates = list(itertools.combinations(range(n), 3))
        edges = [e for e in candidates if rng.below(2) == 1]
        H = Hypergraph(n, 3, edges)
        cert = exact_hamiltonian(H)
        longest = len(exact_longest_path(H))
        closing = brute_hamiltonian(H)
        if cert is not None:
            assert verify_cycle(H, cert)
            assert longest == n and closing
        else:
            assert not (longest == n and closing)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed <= 120, f"took {elapsed:.1f}s, limit 120s"


def test_criterion_02_engine_soundness():
    rng = SplitMix64(0xACCE02)
    yes_count = 0
    for i in range(500):
        n = 5 + rng.below(4)  # n in 5..8
        p = (0.2, 0.4, 0.6)[rng.below(3)]
        H = binomial(n, 3, p, seed=derive_seed(0xACCE02, i))
        out = decide_hamiltonian(H, budget=20_000, seed=i)
        if out.verdict == "yes":
            yes_count += 1
            assert verify_cycle(H, out.certificate)
            assert exact_hamiltonian(H) is not None
        elif out.verdict == "no":
            assert exact_hamiltonian(H) is None
    assert yes_count > 0


def test_criterion_03_engine_complete_hosts():
    started = time.perf_counter()
    for n in range(5, 41):
        H = complete(n, 3)
        out = decide_hamiltonian(H, seed=n)
        assert out.verdict == "yes", f"n={n}"
        assert out.provenance == "rotation"
        assert verify_cycle(H, out.certificate)
        assert len(out.certificate) == n
    elapsed = time.perf_counter() - started
    assert elapsed <= 60, f"took {elapsed:.1f}s, limit 60s"


def test_criterion_04_tau_ordering():
    hosts = [
        complete(7, 3),
        complete(10, 3),
        binomial(8, 3, 0.5, seed=4),
        binomial(9, 3, 0.35, seed=11),
    ]
    config = TrialConfig(full_tau_bh=True, budget=20_000)
    for H in hosts:
        records, _ = run_trials(H, 10, 0xACCE04, config)
        for rec in records:
            assert rec.tau_bh is not None, "probe must resolve at oracle scale"
            assert rec.tau_bh >= rec.tau2


def test_criterion_05_coincidence_complete():
    started = time.perf_counter()
    H = complete(40, 3)
    records, summary = run_trials(H, 200, 0xACCE05, TrialConfig())
    fraction = summary["coincidence_fraction"]
    elapsed = time.perf_counter() - started
    print(
        f"complete(40,3): fraction={fraction:.3f} "
        f"inconclusive={summary['inconclusive']} elapsed={elapsed:.0f}s"
    )
    assert fraction >= 0.90
    assert elapsed <= 600, f"took {elapsed:.1f}s, limit 600s"


def test_criterion_06_coincidence_degree_condition():
    H = degree_condition_random(40, 3, 0.1, seed=0xACCE06)
    assert check_codegree_condition(H, 0.1).ok
    records, summary = run_trials(H, 200, 0xACCE06, TrialConfig())
    fraction = summary["coincidence_fraction"]
    print(
        f"degree-condition host: fraction={fraction:.3f} "
        f"inconclusive={summary['inconclusive']}"
    )
    assert fraction >= 0.90


def test_criterion_07_counterexample_family():
    probe = hamiltonicity_probe(budget=10_000)
    for n in (8, 10, 12):
        H = two_cliques(n, 3)
        for seed in range(5):
            proc = random_process(H, seed)
            with pytest.raises(NoHitError):
                tau_property(proc, probe, "binary")


def test_criterion_08_root_solver():
    for n in (30, 60, 100):
        H = complete(n, 3)
        D = math.comb(n - 1, 2)
        p0 = solve_p0(H, tol=1e-9)
        closed = regular_p0_closed_form(n, D)
        assert abs(p0 - closed) / closed <= 1e-10
        assert abs(decay_sum(H, p0) - 1.0 / math.log(n)) <= 1e-9


def test_criterion_09_tau2_window():
    H = complete(60, 3)
    bt = basic_thresholds(H, 0.3)
    records, _ = run_trials(H, 200, 0xACCE09, TrialConfig(probe=False))
    inside = sum(1 for rec in records if bt.m1 <= rec.tau2 <= bt.m2)
    print(f"window [{bt.m1}, {bt.m2}]: {inside}/200 inside")
    assert inside >= 0.95 * len(records)


def test_criterion_10_rotation_endpoints():
    params = [
        (8, 0.55),
        (8, 0.65),
        (9, 0.4),
        (9, 0.5),
        (10, 0.3),
        (10, 0.4),
        (10, 0.9),  # near-complete: the only regime yielding k=3 at n<=10
    ]
    hosts = 0
    attempts = 0
    while hosts < 100:
        n, p = params[attempts % len(params)]
        H = binomial(n, 3, p, seed=derive_seed(0xACCE10, attempts))
        attempts += 1
        assert attempts < 5000, "host sampling exhausted"
        if not H.is_connected:
            continue
        ks = [k for k in (2, 3) if is_expander(H, k, 2).status == "verified"]
        if not ks:
            continue
        hosts += 1
        path = exact_longest_path(H)
        closure = endpoint_closure(H, path)  # unlimited budget
        for k in ks:
            assert len(closure.paths) >= k, (n, p, attempts, k)
    assert hosts >= 100


def test_criterion_11_binary_vs_linear():
    H = complete(7, 3)
    probe = oracle_probe()
    for seed in range(50):
        proc = random_process(H, seed)
        b = tau_property(proc, probe, "binary")
        l = tau_property(proc, probe, "linear")
        assert b.conclusive and l.conclusive
        assert b.step == l.step


def test_criterion_12_reproducibility(tmp_path, cli_env):
    host_file = tmp_path / "host.txt"
    host_file.write_text(serialize(complete(10, 3)), encoding="utf-8")

    # every command below succeeds: complete(10, 3) is Hamiltonian, so
    # `decide` answers "yes"; a child that cannot start must not pass
    # the byte comparisons on empty output
    def cli(args):
        proc = subprocess.run(
            [sys.executable, "-m", "bergeham.cli", *args],
            capture_output=True,
            cwd=tmp_path,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    # identical argv, repeated: identical bytes
    gen_args = ["gen", "--family", "binomial", "--n", "12", "--p", "0.4", "--seed", "21"]
    assert cli(gen_args) == cli(gen_args)
    decide_args = ["decide", "--host", str(host_file), "--seed", "5"]
    assert cli(decide_args) == cli(decide_args)

    # tau artifacts must not depend on --jobs
    blobs = []
    for jobs, tag in (("1", "a"), ("4", "b")):
        out = str(tmp_path / tag)
        cli(
            [
                "tau", "--host", str(host_file), "--trials", "12",
                "--seed", "31", "--jobs", jobs, "--out", out,
            ]
        )
        blobs.append(
            (
                (tmp_path / f"{tag}.csv").read_bytes(),
                (tmp_path / f"{tag}.summary.json").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]

"""Certificates are checked by code that also runs under ``python -O``.

``-O`` strips ``assert`` statements, so a certificate check written as an
assert would let a corrupted certificate through. The child process below
runs under ``-O``, corrupts each kind of certificate the package builds,
Hamilton cycles and paths, the cycle that pair absorption closes, and the
obstructions on which the τ₂ probe skips its search, and reports whether
the package refused it.
"""

import subprocess
import sys

CHILD = r"""
import sys
from bergeham import engine, oracle, process
from bergeham.berge import BergeCycle, BergePath, CertificateError, Obstruction, close_with, rotated
from bergeham.generators import complete, two_cliques_matching
from bergeham.hypergraph import Hypergraph

print("optimize", sys.flags.optimize)


def repeat_first_edge(edge_ids):
    return edge_ids[:-1] + edge_ids[:1]


def spanning_closures_corrupted(n):
    # Only the closure that makes the Hamilton cycle is corrupted, so the
    # search runs as usual until it reports the cycle.
    def corrupt_close_with(path, e):
        cycle = close_with(path, e)
        if len(cycle) < n:
            return cycle
        return BergeCycle(cycle.vertices, repeat_first_edge(cycle.edge_ids))

    return corrupt_close_with


def pair_rotation_corrupted(path, e, pivot):
    # The rotation a pair absorption closes through its second edge, with
    # one edge id swapped for the first: the closed cycle repeats an edge.
    witness = rotated(path, e, pivot)
    return BergePath(witness.vertices, repeat_first_edge(witness.edge_ids))


def short_cycle_search(H, path, tracker):
    # A valid Berge cycle on 3 of the host's vertices, not a Hamilton cycle.
    pairs = [(0, 1, 3), (1, 2, 3), (0, 2, 3)]
    cycle = BergeCycle((0, 1, 2), tuple(H.edge_id_of(e) for e in pairs))
    return cycle, path, None


# 0 and 2 have degree 2, with edges {0, 1} and {0, 3}; 1 has degree 3
SMALL = Hypergraph(6, 3, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5), (1, 3, 5)])


def wrong_obstruction(cert):
    # The probe skips its search only on an obstruction it has checked.
    return lambda H: cert


cases = [
    ("decide", engine, "close_with", spanning_closures_corrupted(10),
     lambda: engine.decide_hamiltonian(complete(10, 3))),
    ("absorb", engine, "close_with", spanning_closures_corrupted(12),
     lambda: engine.absorption_run(complete(12, 3), d0=4, budget=300_000, seed=9)),
    ("absorb-pair", engine, "rotated", pair_rotation_corrupted,
     lambda: engine.absorption_run(two_cliques_matching(36, seed=1), seed=9494955178128197401)),
    ("decide-short-cycle", engine, "_search", short_cycle_search,
     lambda: engine.decide_hamiltonian(complete(10, 3))),
    ("oracle-cycle", oracle, "BergeCycle",
     lambda vs, es: BergeCycle(vs, repeat_first_edge(es)),
     lambda: oracle.exact_hamiltonian(complete(6, 3))),
    ("oracle-path", oracle, "BergePath",
     lambda vs, es: BergePath(vs, repeat_first_edge(es)),
     lambda: oracle.exact_longest_path(complete(6, 3))),
    ("bridge-crossed", process, "obstruction",
     wrong_obstruction(Obstruction("bridge", edge=0, side=(0, 1, 2))),
     lambda: process.hamiltonicity_probe()(SMALL, 6)),
    ("overload-degree-3", process, "obstruction",
     wrong_obstruction(Obstruction("overload", edge=0, vertices=(0, 1, 2))),
     lambda: process.hamiltonicity_probe()(SMALL, 6)),
    ("twin-edges-differ", process, "obstruction",
     wrong_obstruction(Obstruction("twin", vertices=(0, 2))),
     lambda: process.hamiltonicity_probe()(SMALL, 6)),
]
for name, module, attr, corrupted, run in cases:
    original = getattr(module, attr)
    setattr(module, attr, corrupted)
    try:
        result = run()
    except CertificateError:
        print(name, "refused")
    else:
        print(name, "accepted", result)
    finally:
        setattr(module, attr, original)
"""


def test_corrupted_certificates_raise_under_O(cli_env, tmp_path):
    child = subprocess.run(
        [sys.executable, "-O", "-c", CHILD],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        "optimize 1",
        "decide refused",
        "absorb refused",
        "absorb-pair refused",
        "decide-short-cycle refused",
        "oracle-cycle refused",
        "oracle-path refused",
        "bridge-crossed refused",
        "overload-degree-3 refused",
        "twin-edges-differ refused",
    ]

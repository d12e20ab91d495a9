"""Names that the benchmark's trace and capture wrappers replace.

``bench/workloads.py`` swaps each of these attributes for a wrapper,
reading the original from its owner's ``__dict__``, so each must stay
bound there to the function the package calls. ``engine`` keeps
``endpoint_closure`` bound although it does not call it, and
``Hypergraph`` although it grows graphs with ``Hypergraph.extended``
rather than the constructor: a cleanup that drops either import would
break ``bench/run.py --trace 1`` on every workload.
"""

import pytest

from bergeham import berge, engine, hypergraph, process

PATCHED = [
    (engine, "endpoint_closure", berge.endpoint_closure),
    (engine, "Hypergraph", hypergraph.Hypergraph),
    (engine, "extract_expander", engine.extract_expander),
    (engine, "connect_components", engine.connect_components),
    (process, "random_process", process.random_process),
    (process, "decide_hamiltonian", engine.decide_hamiltonian),
    (process, "tau_min_degree", process.tau_min_degree),
    (process.SubgraphProcess, "prefix", process.SubgraphProcess.prefix),
]


@pytest.mark.parametrize(
    "owner,name,target",
    PATCHED,
    ids=[f"{owner.__name__}.{name}" for owner, name, _ in PATCHED],
)
def test_patched_name_stays_bound(owner, name, target):
    assert owner.__dict__[name] is target

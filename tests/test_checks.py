"""The check registry: its output stream, and the two facts records it reads."""

import concurrent.futures
import hashlib
import random
from pathlib import Path

from zirkit.cli import main
from zirkit.forcing import is_minimal_zfs
from zirkit.graphs import (Graph, canonical_children, enumerate_labeled_graphs, mask_of,
                           to_graph6)
from zirkit.families import generate
from zirkit.profiles import (CHARACTERIZATION_CHECKS, CHECKS, SUBSET_CHECK_MAX_ORDER,
                             parameter_profile)
from zirkit.survey import _CHECKS, SCAN_CHECKS, THEOREM_CHECKS, _GraphData

from oracles import random_adj

GOLDEN_FAMILIES = (
    "necklace:2", "corona(cycle:4,empty:2)", "corona(complete:2,cycle:5)",
    "corona(complete:1,empty:3)", "join(path:4,empty:2)", "join(cycle:5,complete:2)",
    "fig5", "cycle:12",
)
SHARED = [c for c in CHECKS if c.survey_name]
# the question scans read only values, so they run on either facts record
SCANS = [_CHECKS[name] for name in SCAN_CHECKS]
FLAGS = ("n", "min_degree", "max_degree", "has_edge", "connected", "isolated_free")


def test_compute_check_stream_is_pinned(capsys):
    # check order, skip reasons and detail text, byte for byte
    out = []
    for expr in GOLDEN_FAMILIES:
        assert main(["compute", "--witness", "--check-bounds", "--family", expr]) == 0
        out.append(capsys.readouterr().out)
    golden = Path(__file__).parent / "data" / "compute_check_bounds.jsonl"
    assert "".join(out).encode() == golden.read_bytes()


def test_dense_gnp_check_stream_is_pinned(capsys):
    # twelve G(n, p) graphs, n = 13-15 and p = 0.5 or 0.7: small sets force
    # nothing there, so the zir walk goes deep after its first find, which
    # is where its pruning acts; values, witnesses and checks byte for byte
    data = Path(__file__).parent / "data"
    assert main(["compute", "--witness", "--check-bounds",
                 "--file", str(data / "dense_gnp.g6")]) == 0
    assert capsys.readouterr().out.encode() == \
        (data / "compute_dense_gnp.jsonl").read_bytes()


def test_sparse_gnp_check_stream_is_pinned(capsys):
    # twelve G(n, p) graphs, n = 12-15 and p = 0.2 or 0.35, some with
    # isolated vertices: Zbar and the gamma2 seed of ZIR carry the solve
    # there; values, witnesses and checks byte for byte
    data = Path(__file__).parent / "data"
    assert main(["compute", "--witness", "--check-bounds",
                 "--file", str(data / "sparse_gnp.g6")]) == 0
    assert capsys.readouterr().out.encode() == \
        (data / "compute_sparse_gnp.jsonl").read_bytes()


def test_sparse_gnp_csv_stream_is_pinned(capsys):
    # the same twelve graphs as CSV: the header, then one value row each
    data = Path(__file__).parent / "data"
    assert main(["compute", "--format", "csv",
                 "--params", "zir,Z,Zbar,ZIR,gamma,gamma2,alpha,gammaP",
                 "--file", str(data / "sparse_gnp.g6")]) == 0
    assert capsys.readouterr().out.encode() == \
        (data / "compute_sparse_gnp.csv").read_bytes()


def test_small_order_witness_stream_is_pinned(tmp_path, capsys):
    # every labeled graph of order <= 5: values, witnesses and check stream,
    # byte for byte, so a refactor of the solvers cannot move a witness
    path = tmp_path / "small.g6"
    path.write_text("".join(to_graph6(g) + "\n"
                            for n in range(1, 6) for g in enumerate_labeled_graphs(n)))
    assert main(["compute", "--witness", "--check-bounds", "--file", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b332572b639c97470ea26412cb80d86d20d3eaddd0e70375f8960b0688afb61b"


def _stdout_digest(capsys, argv):
    main(argv)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_survey_stream_is_pinned(capsys):
    digest = "dac6abe198dbb980376d87ca1715b7e9b4740cd345d700a8a5c6dceddc7df7b6"
    for threads in ("1", "2"):
        assert _stdout_digest(capsys, ["survey", "--order", "5", "--threads", threads]) == digest


def test_survey_order_six_stream_is_pinned(capsys):
    assert _stdout_digest(capsys, ["survey", "--order", "6"]) == \
        "07052b57a65564a881e1d9473174b5d9401734fbc54ba81e5aa53776885a49a3"


def test_survey_order_seven_pool_stream_is_pinned(capsys, monkeypatch):
    # order 7 is the first order whose shards go to the worker pool
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert _stdout_digest(capsys, ["survey", "--order", "7", "--override-budget",
                                   "--threads", "2"]) == \
        "93fcd4c9a575902848ae5deee5e5ab3985bc5d10d01a69592a3adf8c5f235eb7"
    assert started == [2]


def test_table_stream_is_pinned(capsys):
    assert _stdout_digest(capsys, ["table", "--format", "jsonl"]) == \
        "a75b7402505592d77c0d1da767a5c96dbdc16890edad9a3591e11d27e2439895"


def test_shared_checks_are_the_survey_theorems():
    assert len(SHARED) == 10
    assert {c.survey_name for c in SHARED} <= set(THEOREM_CHECKS)


def _parity_graphs():
    for n in range(1, 6):
        yield from enumerate_labeled_graphs(n)
    rng = random.Random(20261018)
    for _ in range(50):
        yield Graph.from_adj(random_adj(rng.randint(7, 8), rng))
    # and one graph of every isomorphism class of order 6 and 7
    parents = [()]
    for n in range(1, 8):
        parents = [adj for parent in parents for adj, _ in canonical_children(parent)]
        if n >= 6:
            yield from map(Graph.from_adj, parents)


def test_facts_records_agree():
    # the shared predicates make the two facts records the only place the
    # survey and compute --check-bounds can diverge
    for g in _parity_graphs():
        table = _GraphData(g)
        solved = parameter_profile(g)
        where = g.adj
        for name in FLAGS:
            assert getattr(table, name) == getattr(solved, name), (name, where)
        for name, value in table.values.items():
            assert solved.values[name] == value, (name, where)
        assert table.abandons == solved.abandons, where
        assert mask_of(solved.witnesses["Zbar"]) == table.zbar_witness, where
        # both records read Facts.minimal_zfs off the all-subsets forcing
        # table, so compare them with the definition too
        assert table.minimal_zfs == solved.minimal_zfs, where
        assert table.minimal_zfs == [s for s in range(g.full + 1)
                                     if is_minimal_zfs(g, s)], where
        assert table.maximal_zir_sets == solved.maximal_zir_sets, where
        for s in range(g.full + 1):
            assert table.forces(s) == solved.forces(s), (s, where)
        for check in SHARED + SCANS:
            # the same skip reason, or the same outcome and detail
            assert check.evaluate(table) == check.evaluate(solved), (check.name, where)


def test_profile_checks_build_no_closure_table_above_the_subset_gate():
    # the profile builds the 2^n-bit closure and forcing tables only for the
    # checks gated to n <= SUBSET_CHECK_MAX_ORDER
    g = generate("corona(path:4,empty:2)")
    assert g.n == 12 > SUBSET_CHECK_MAX_ORDER
    profile = parameter_profile(g)
    profile.product = ("corona", generate("path:4"), generate("empty:2"))
    for check in CHARACTERIZATION_CHECKS:
        check.evaluate(profile)
    assert not {"closures", "forcing_table", "minimal_table"} & set(vars(profile))

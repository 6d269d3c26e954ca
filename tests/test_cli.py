import argparse
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ramseylab
from ramseylab.arrowing import DEFAULT_BUDGET, arrows, verify_determiner
from ramseylab.cli import (
    EXIT_BAD_INPUT,
    EXIT_INDETERMINATE,
    EXIT_INVARIANT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from ramseylab.formats import coloring_to_text, graph_from_graph6, graph_to_graph6
from ramseylab.graphs import EdgeColoring, Graph, clique, clique_with_pendants, cycle, path, star

from conftest import case_nodes


@pytest.fixture
def files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def write(name, graph):
        p = tmp_path / name
        p.write_text(graph_to_graph6(graph) + "\n")
        return str(p)

    return tmp_path, write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def _subparsers(parser):
    """The choices of the parser's subcommand argument: name -> parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_ramsey_number_cli(files, capsys):
    _, write = files
    g = write("p4.g6", path(4))
    h = write("k3.g6", clique(3))
    code, report = run(capsys, ["ramsey-number", "--g", g, "--h", h, "--cap", "10"])
    assert code == EXIT_OK
    assert report["schema"] == 1
    assert report["verdict"]["ramsey_number"] == 7
    assert set(report["inputs"]) == {g, h}


def test_ramsey_number_cli_reports_nodes_of_every_search(files, capsys, monkeypatch):
    _, write = files
    g = write("p5.g6", path(5))
    h = write("k3.g6", clique(3))
    searched = []
    clique_arrows = ramseylab.arrowing._clique_arrows

    def recording(n, g, h, *args, **kwargs):
        searched.append((n, h.n))
        return clique_arrows(n, g, h, *args, **kwargs)

    monkeypatch.setattr(ramseylab.arrowing, "_clique_arrows", recording)
    code, report = run(capsys, ["ramsey-number", "--g", g, "--h", h, "--cap", "10"])
    assert code == EXIT_OK
    assert report["verdict"]["ramsey_number"] == 9
    # The block colorings refute K_8 for (P5, K3) and K_4 for (P5, K2), so
    # each level's sweep searches one K_n, its Ramsey number: (P5, K1) first.
    assert searched == [(1, 1), (5, 2), (9, 3)]
    # Each level of the rho recursion searches K_n from one above its block
    # coloring, (t-1)(5-1) vertices, up to r.  On each K_n the split searches
    # the red degrees d of vertex 0 with n - 1 - d < rho: rho = R(P5, K2) = 5
    # for (P5, K3) and R(P5, K1) = 1 for (P5, K2), both searched first.
    # (P5, K1) skips nothing; on its one clique, K_1, rho = 1 says the same.
    nodes = sum(
        sum(case_nodes(n, path(5), clique(t), range(max(0, n - rho), n)))
        for t, r, rho in ((3, 9, 5), (2, 5, 1), (1, 1, 1))
        for n in range((t - 1) * 4 + 1, r + 1)
    )
    assert report["nodes_explored"] == nodes > 0


def test_construct_cli(files, capsys):
    _, write = files
    code, report = run(capsys, ["construct", "clique-pendants", "--t", "6", "--a", "2", "--b", "3"])
    assert code == EXIT_OK
    from ramseylab.formats import graph_from_graph6

    assert graph_from_graph6(report["verdict"]["graph6"]) == clique_with_pendants(6, 2, 3)


def test_construct_writes_files(files, capsys):
    tmp_path, _ = files
    out = tmp_path / "lam.g6"
    colout = tmp_path / "lam-coloring.txt"
    t_file = tmp_path / "t.g6"
    t_file.write_text(graph_to_graph6(path(4)) + "\n")
    code, report = run(
        capsys,
        [
            "construct", "lambda", "--T", str(t_file), "--gamma", str(t_file),
            "--i", "1", "--out", str(out), "--coloring-out", str(colout),
        ],
    )
    assert code == EXIT_OK
    assert out.read_text().strip() == report["verdict"]["graph6"]
    assert colout.exists() and report["verdict"]["coloring"]["path"] == str(colout)


def test_coloring_out_only_where_a_coloring_exists(files, capsys):
    tmp_path, write = files
    construct = _subparsers(_subparsers(build_parser())["construct"])
    takes = {kind for kind, p in construct.items() if "--coloring-out" in p._option_string_actions}
    assert takes == {"lambda", "c-gadget", "distinguisher"}
    # a kind without a coloring refuses the option and writes nothing
    assert main(["construct", "star", "3", "--coloring-out", "x.txt"]) == EXIT_USAGE
    assert not (tmp_path / "x.txt").exists()
    c5 = write("c5.g6", cycle(5))
    code, report = run(capsys, ["construct", "c-gadget", "--gamma-prime", c5, "--coloring-out", "c.txt"])
    assert code == EXIT_OK and report["verdict"]["coloring"] == {"format": "file", "path": "c.txt"}
    assert (tmp_path / "c.txt").exists()


def test_arrows_cli(files, capsys):
    _, write = files
    g = write("star2.g6", star(2))
    h = write("k3.g6", clique(3))
    f = write("c5.g6", cycle(5))
    code, report = run(capsys, ["arrows", "--g", g, "--h", h, "--f", f])
    assert code == EXIT_OK and report["verdict"]["arrows"] is False
    assert report["verdict"]["witness"]["format"] == "inline"
    assert main(["arrows", g, h, f]) == EXIT_USAGE
    capsys.readouterr()


def test_arrows_witness_file_beyond_62_vertices(files, capsys):
    tmp_path, write = files
    big = Graph(70, [(i, i + 1) for i in range(69)])
    f = write("big.g6", big)
    g = write("k3.g6", clique(3))
    code, report = run(capsys, ["arrows", "--g", g, "--h", g, "--f", f])
    assert code == EXIT_OK
    assert report["verdict"]["arrows"] is False
    witness = report["verdict"]["witness"]
    assert witness["format"] == "file"
    assert (tmp_path / witness["path"]).exists()


def test_minimal_cli(files, capsys):
    _, write = files
    f = write("k13.g6", star(3))
    g = write("k11.g6", star(1))
    h = write("k13b.g6", star(3))
    code, report = run(capsys, ["minimal", "--f", f, "--g", g, "--h", h])
    assert code == EXIT_OK and report["verdict"]["minimal"] is True


def test_equiv_scan_cli(files, capsys):
    _, write = files
    s2 = write("s2.g6", star(2))
    s1 = write("s1.g6", star(1))
    s3 = write("s3.g6", star(3))
    code, report = run(
        capsys,
        ["equiv-scan", "--g1", s2, "--h1", s2, "--g2", s1, "--h2", s3, "--max-vertices", "4"],
    )
    assert code == EXIT_OK
    assert report["verdict"]["kind"] == "distinguisher"
    assert report["verdict"]["first_pair_arrows"] is True


@pytest.mark.parametrize(
    "pairs, options, code, kind, skipped, shape",
    [
        # the clique numbers differ: decided without a search
        ((star(2), clique(3), star(2), clique(4)), ["--max-vertices", "4"], EXIT_OK, "symbolic-distinguisher", 0, None),
        # every host with a triangle is skipped, and nothing else tells the pairs apart
        (
            (path(4), clique(3), path(4), clique_with_pendants(3, 1, 2)),
            ["--max-vertices", "5", "--budget", "0"],
            EXIT_INDETERMINATE,
            "no-distinguisher-found",
            14,
            None,
        ),
        # a distinguisher found past skipped hosts settles the scan
        (
            (star(2), clique(3), star(3), clique(3)),
            ["--max-vertices", "6", "--budget", "2"],
            EXIT_OK,
            "distinguisher",
            30,
            (6, 14),
        ),
    ],
    ids=["symbolic", "skipped", "found-past-skipped"],
)
def test_equiv_scan_reports_reason_and_skipped_hosts(files, capsys, pairs, options, code, kind, skipped, shape):
    _, write = files
    argv = ["equiv-scan", *options]
    for name, graph in zip(("g1", "h1", "g2", "h2"), pairs):
        argv += [f"--{name}", write(f"{name}.g6", graph)]
    got, report = run(capsys, argv)
    verdict = report["verdict"]
    assert got == code and verdict["kind"] == kind
    assert len([graph_from_graph6(s) for s in verdict.get("skipped", [])]) == skipped
    if kind == "symbolic-distinguisher":
        assert "Nešetřil–Rödl" in verdict["reason"] and report["nodes_explored"] == 0
    else:
        assert "reason" not in verdict
    if shape is None:
        assert "distinguisher" not in verdict
    else:
        found = graph_from_graph6(verdict["distinguisher"])
        assert (found.n, found.m) == shape


def test_factor_and_belck_cli(files, capsys):
    _, write = files
    c6 = write("c6.g6", cycle(6))
    code, report = run(capsys, ["factor", "--k", "1", c6])
    assert code == EXIT_OK and len(report["verdict"]["factor"]) == 3
    c5 = write("c5.g6", cycle(5))
    code, report = run(capsys, ["factor", "--k", "1", c5])
    assert code == EXIT_OK and report["verdict"]["factor"] is None
    s3 = write("s3.g6", star(3))
    code, report = run(capsys, ["belck", "--p", "1", "--d", "0", s3])
    assert code == EXIT_OK and report["verdict"]["certificate"] is True
    assert report["verdict"]["odd_components"] == 3
    # both branches report the set checked, repeats dropped
    k3 = write("k3.g6", clique(3))
    for graph, certified in ((k3, False), (s3, True)):
        code, report = run(capsys, ["belck", graph, "--p", "1", "--d", "0,0"])
        assert code == EXIT_OK and report["verdict"]["certificate"] is certified
        assert report["verdict"]["D"] == [0]


def test_arrows_cli_decides_a_deep_search(files, capsys):
    tmp_path, write = files
    p3, k3 = write("p3.g6", path(3)), write("k3.g6", clique(3))
    f = write("p2000.g6", path(2000))
    out = tmp_path / "witness.txt"
    argv = ["arrows", "--g", p3, "--h", k3, "--f", f, "--witness-out", str(out)]
    code, report = run(capsys, argv)
    assert code == EXIT_OK and report["schema"] == 1
    assert report["verdict"]["arrows"] is False and report["nodes_explored"] == 999
    assert report["verdict"]["witness"] == {"format": "file", "path": str(out)}
    assert out.exists()


def test_recolor_cli(files, capsys):
    tmp_path, write = files
    f_graph = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    f = write("f.g6", f_graph)
    coloring = EdgeColoring(f_graph, red=[(2, 3)], blue=[(0, 1), (1, 2), (0, 2)])
    cpath = tmp_path / "col.txt"
    cpath.write_text(coloring_to_text(coloring))
    out = tmp_path / "out.txt"
    code, report = run(
        capsys,
        ["recolor", "walk", f, str(cpath), "--s", "2", "--t", "3", "--out", str(out)],
    )
    assert code == EXIT_OK
    assert out.exists()
    from ramseylab.formats import coloring_from_text

    result = coloring_from_text(out.read_text(), host=f_graph)
    assert result.color((0, 1)) == "R"
    # each digest covers exactly the bytes of its file
    assert report["inputs"] == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (f, str(cpath))}


def test_recolor_woven_cli(files, capsys):
    tmp_path, write = files
    base = list(itertools.combinations(range(6), 2))
    host = Graph(10, base + [(6, 7), (8, 9)])
    f = write("f.g6", host)
    g = write("g.g6", star(2))
    coloring = EdgeColoring(host, red=[(6, 7), (8, 9)], blue=base)
    cpath = tmp_path / "col.txt"
    cpath.write_text(coloring_to_text(coloring))
    code, report = run(
        capsys,
        [
            "recolor", "woven", f, str(cpath), "--g", g,
            "--a", "1", "--b", "2", "--t", "6",
        ],
    )
    assert code == EXIT_OK
    assert report["verdict"]["family_size"] == 1
    assert len(report["verdict"]["matching"]) == 3


def test_verify_determiner_cli(files, capsys):
    _, write = files
    d = write("k3.g6", clique(3))
    T = write("p4.g6", path(4))
    code, report = run(capsys, ["verify-determiner", "--d", d, "--beta", "0,1", "--T", T, "--t", "3"])
    assert code == EXIT_OK
    v = report["verdict"]
    assert v["free_coloring_exists"] is True
    assert v["beta_forced_red"] is False  # spec: axiom (ii) fails for K_t
    assert v["well_behaved"] is True
    assert v["beta_closure_is_clique"] is True


def test_verify_determiner_cli_reports_nodes(files, capsys):
    _, write = files
    d = write("k4.g6", clique(4))
    T = write("p3.g6", path(3))
    code, report = run(capsys, ["verify-determiner", "--d", d, "--beta", "0,1", "--T", T, "--t", "3"])
    assert code == EXIT_OK
    assert report["nodes_explored"] > 0


def test_verify_determiner_library_direct():
    results = verify_determiner(clique(3), (0, 1), path(4), 3)
    assert results["beta_forced_red"] is False
    assert results["beta_closure_is_clique"] is True
    # closure check fails when the neighborhood is bigger than K_t
    results2 = verify_determiner(clique(4), (0, 1), path(4), 3)
    assert results2["beta_closure_is_clique"] is False


_SEARCH = ["arrowing", "cli", "enumeration", "errors", "formats", "graphs", "subgraph"]

# Each probe's argv (None for a bare `import ramseylab`) and the ramseylab
# submodules it may load: exactly those its command uses.
PROBES = {
    "import": (None, []),
    "arrows": (["arrows", "--g", "s2.g6", "--h", "k3.g6", "--f", "c5.g6"], _SEARCH),
    "ramsey-number": (["ramsey-number", "--g", "p4.g6", "--h", "k3.g6", "--cap", "10"], _SEARCH),
    "equiv-scan": (
        ["equiv-scan", "--g1", "s2.g6", "--h1", "k3.g6", "--g2", "s2.g6", "--h2", "k3k2.g6", "--max-vertices", "5"],
        _SEARCH,
    ),
    "recolor-walk": (
        ["recolor", "walk", "f.g6", "col.txt", "--s", "2", "--t", "3", "--out", "out.txt"],
        ["cli", "errors", "formats", "graphs", "recolor", "subgraph", "trees"],
    ),
    "factor": (["factor", "c5.g6", "--k", "2"], ["cli", "errors", "factors", "formats", "graphs", "matching"]),
    "construct-star": (
        ["construct", "star", "3"],
        ["cli", "errors", "formats", "graphs"],
    ),
    "construct-clique-pendants": (
        ["construct", "clique-pendants", "--t", "3", "--a", "1", "--b", "2"],
        ["cli", "errors", "formats", "graphs"],
    ),
}

_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import ramseylab
    code = 0
else:
    import ramseylab.cli
    code = ramseylab.cli.main(argv)
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("ramseylab."))
print(json.dumps({"code": code, "loaded": loaded, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("name", PROBES)
def test_cli_command_loads_only_its_modules(files, name):
    # A fresh interpreter: this one has loaded every module already, and test
    # plugins may have loaded numpy.
    tmp_path, write = files
    for file, graph in (("s2", star(2)), ("k3", clique(3)), ("c5", cycle(5)), ("p4", path(4))):
        write(f"{file}.g6", graph)
    write("k3k2.g6", clique_with_pendants(3, 1, 2))
    f_graph = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    write("f.g6", f_graph)
    coloring = EdgeColoring(f_graph, red=[(2, 3)], blue=[(0, 1), (1, 2), (0, 2)])
    (tmp_path / "col.txt").write_text(coloring_to_text(coloring))
    argv, expected = PROBES[name]
    src = str(Path(ramseylab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    *report, probe = out.stdout.splitlines()
    probe = json.loads(probe)
    assert probe == {"code": EXIT_OK, "loaded": expected, "numpy": False}, out.stderr
    if argv is not None:
        assert json.loads(report[0])["schema"] == 1


def test_every_budget_default_is_the_deciders():
    def parsers(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from parsers(sub)

    defaults = {p.prog: a.default for p in parsers(build_parser()) for a in p._actions if a.dest == "budget"}
    assert len(defaults) == 5
    assert set(defaults.values()) == {DEFAULT_BUDGET}


def test_exit_codes(files, capsys):
    tmp_path, write = files
    code = main(["no-such-command"])
    assert code == EXIT_USAGE
    code = main(["arrows", "--g", "missing.g6", "--h", "missing.g6", "--f", "missing.g6"])
    assert code == EXIT_USAGE
    bad = tmp_path / "bad.g6"
    bad.write_text("D\x19\n")
    k3 = write("k3.g6", clique(3))
    code = main(["arrows", "--g", k3, "--h", k3, "--f", str(bad)])
    assert code == EXIT_BAD_INPUT
    # non-ASCII graph6 and coloring files are malformed input, not usage errors
    nonascii = tmp_path / "nonascii.g6"
    nonascii.write_bytes("Bw\u00e9\n".encode("utf-8"))
    assert main(["arrows", "--g", str(nonascii), "--h", k3, "--f", k3]) == EXIT_BAD_INPUT
    assert main(["factor", str(nonascii), "--k", "1"]) == EXIT_BAD_INPUT
    nonascii_col = tmp_path / "nonascii.txt"
    nonascii_col.write_bytes("3 3\n0 1 B\n0 2 B\n1 2 \u00df\n".encode("utf-8"))
    assert main(["recolor", "walk", k3, str(nonascii_col), "--s", "2", "--t", "3"]) == EXIT_BAD_INPUT
    # coloring for the wrong graph
    other = EdgeColoring(clique(3), blue=clique(3).edges)
    cpath = tmp_path / "col.txt"
    cpath.write_text(coloring_to_text(other))
    c5 = write("c5.g6", cycle(5))
    code = main(["recolor", "walk", c5, str(cpath), "--s", "2", "--t", "3"])
    assert code == EXIT_MISMATCH
    huge = tmp_path / "huge.txt"
    huge.write_text("5000000 0\n")
    assert main(["recolor", "walk", k3, str(huge), "--s", "2", "--t", "3"]) == EXIT_MISMATCH
    # each recolor mode takes only its own options, and all of them
    assert main(["recolor", "walk", k3, str(cpath), "--t", "3"]) == EXIT_USAGE
    woven = ["recolor", "woven", k3, str(cpath), "--g", k3, "--a", "1", "--b", "2", "--t", "3"]
    assert main(woven + ["--s", "2"]) == EXIT_USAGE
    # a non-tree T and a scan over no hosts are usage errors
    assert main(["construct", "distinguisher", "--T", c5, "--t", "3"]) == EXIT_USAGE
    scan = ["equiv-scan", "--g1", k3, "--h1", k3, "--g2", k3, "--h2", k3]
    assert main(scan + ["--max-vertices", "0"]) == EXIT_USAGE
    # the walk needs s >= 2, also on a host with no blue triangle
    p3 = write("p3.g6", path(3))
    p3_blue = tmp_path / "p3_blue.txt"
    p3_blue.write_text(coloring_to_text(EdgeColoring(path(3), blue=path(3).edges)))
    assert main(["recolor", "walk", p3, str(p3_blue), "--s", "1", "--t", "3"]) == EXIT_USAGE
    # beta must be an edge of the determiner; a budget must be nonnegative
    k4 = write("k4.g6", clique(4))
    chain = ["construct", "determiner-chain", "--T", p3, "--determiner", k4]
    assert main(chain + ["--beta=-1,0"]) == EXIT_USAGE
    assert main(chain + ["--beta", "5,6"]) == EXIT_USAGE
    assert main(["arrows", "--g", k3, "--h", k3, "--f", k3, "--budget", "-1"]) == EXIT_USAGE
    assert main(["ramsey-number", "--g", p3, "--h", k3, "--cap", "5", "--budget", "-1"]) == EXIT_USAGE
    # also when the block coloring of (P3, K3) reaches the cap and no search runs
    assert main(["ramsey-number", "--g", p3, "--h", k3, "--cap", "3", "--budget", "-1"]) == EXIT_USAGE
    assert main(["minimal", "--f", k3, "--g", p3, "--h", k3, "--budget", "-1"]) == EXIT_USAGE
    determiner = ["verify-determiner", "--d", k4, "--beta", "0,1", "--T", p3, "--t", "3"]
    assert main(determiner + ["--budget", "-1"]) == EXIT_USAGE
    # an unknown construction is a usage error
    assert main(["construct", "grid", "3"]) == EXIT_USAGE
    # a graph too large for graph6 (258,048 vertices) is a usage error, not malformed input
    assert main(["construct", "star", "258047"]) == EXIT_USAGE
    # a negative scan budget is rejected whether or not the clique-number filter fires
    s2 = write("s2.g6", star(2))
    neg = ["equiv-scan", "--g1", s2, "--h1", k3, "--g2", s2, "--max-vertices", "4", "--budget", "-1"]
    assert main(neg + ["--h2", k4]) == EXIT_USAGE
    assert main(neg + ["--h2", k3]) == EXIT_USAGE
    # malformed coloring lines: a non-integer vertex, a loop
    for line in ("x 2 B", "0 0 B"):
        cpath.write_text(f"3 3\n{line}\n0 2 B\n1 2 B\n")
        code = main(["recolor", "walk", k3, str(cpath), "--s", "2", "--t", "3"])
        assert code == EXIT_BAD_INPUT
    # budget exhaustion
    k6 = write("k6.g6", clique(6))
    code = main(["arrows", "--g", k3, "--h", k3, "--f", k6, "--budget", "2"])
    assert code == EXIT_INDETERMINATE
    capsys.readouterr()


def test_invariant_violation_exits_4(files, capsys, monkeypatch):
    # A witness that fails its re-check is a bug, reported without a report.
    _, write = files
    monkeypatch.setattr("ramseylab.arrowing.coloring_is_free", lambda *args: False)
    argv = ["arrows", "--g", write("s2.g6", star(2)), "--h", write("k3.g6", clique(3))]
    assert main(argv + ["--f", write("c5.g6", cycle(5))]) == EXIT_INVARIANT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invariant violation:")


def test_report_determinism(files, capsys):
    _, write = files
    g = write("p3.g6", path(3))
    h = write("k3.g6", clique(3))
    f = write("k4.g6", clique(4))
    _, r1 = run(capsys, ["--seed", "3", "arrows", "--g", g, "--h", h, "--f", f])
    _, r2 = run(capsys, ["--seed", "3", "arrows", "--g", g, "--h", h, "--f", f])
    r1.pop("elapsed")
    r2.pop("elapsed")
    assert r1 == r2
    # the seed is echoed as given, and reported as null when none was given
    assert r1["seed"] == 3
    _, unseeded = run(capsys, ["arrows", "--g", g, "--h", h, "--f", f])
    assert unseeded["seed"] is None


def test_construct_reports_the_seed_it_used(files, capsys):
    argv = ["construct", "factor-extremal", "--p", "1", "--q", "3", "--r", "3"]
    _, implicit = run(capsys, argv)
    _, explicit = run(capsys, ["--seed", "0", *argv])
    implicit.pop("elapsed")
    explicit.pop("elapsed")
    # no construction is randomized: the seed changes only its own echo
    assert implicit.pop("seed") is None
    assert explicit.pop("seed") == 0
    assert implicit == explicit


def test_verify_determiner_bad_beta(files, capsys):
    _, write = files
    d = write("k3.g6", clique(3))
    T = write("p4.g6", path(4))
    code = main(["verify-determiner", "--d", d, "--beta", "0,5", "--T", T, "--t", "3"])
    assert code == EXIT_USAGE
    code = main(["verify-determiner", "--d", d, "--beta", "0-1", "--T", T, "--t", "3"])
    assert code == EXIT_USAGE
    assert "expected an edge as 'u,v'" in capsys.readouterr().err


def test_construct_basic_kinds(files, capsys):
    _, _ = files
    for kind, param, n, m in (("star", 3, 4, 3), ("path", 4, 4, 3), ("clique", 4, 4, 6), ("cycle", 5, 5, 5)):
        code, report = run(capsys, ["construct", kind, str(param)])
        assert code == EXIT_OK
        assert report["verdict"]["n"] == n and report["verdict"]["m"] == m


def test_constructed_gadgets_roundtrip_graph6(files, capsys):
    from ramseylab.families import diameter_distinguisher, factor_extremal_graph
    from ramseylab.formats import graph_from_graph6, graph_to_graph6

    F, _ = diameter_distinguisher(path(4), 3)
    assert graph_from_graph6(graph_to_graph6(F)) == F
    big, _, _ = factor_extremal_graph(1, 3, 3)
    assert graph_from_graph6(graph_to_graph6(big)) == big


def test_construct_distinguisher_cli(files, capsys):
    tmp_path, write = files
    T = write("p4.g6", path(4))
    code, report = run(capsys, ["construct", "distinguisher", "--T", T, "--t", "3"])
    assert code == EXIT_OK
    assert report["verdict"]["n"] == 27 and report["verdict"]["m"] == 45
    assert report["verdict"]["coloring"]["format"] == "inline"


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = re.findall(r"^ramseylab .*$", readme.read_text(), flags=re.M)
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])



# Each case: its argv, the command label its report carries and its exit code.
REPORT_CASES = [
    (["construct", "star", "3"], "construct star", EXIT_OK),
    (["construct", "path", "4"], "construct path", EXIT_OK),
    (["construct", "clique", "4"], "construct clique", EXIT_OK),
    (["construct", "cycle", "5"], "construct cycle", EXIT_OK),
    (["construct", "clique-pendants", "--t", "6", "--a", "2", "--b", "3"], "construct clique-pendants", EXIT_OK),
    (["construct", "caterpillar", "--s", "3", "--mid", "1"], "construct caterpillar", EXIT_OK),
    (["construct", "uniform-tree", "--k", "2", "--i", "2"], "construct uniform-tree", EXIT_OK),
    (["construct", "lambda", "--T", "p4.g6", "--gamma", "p4.g6", "--i", "1"], "construct lambda", EXIT_OK),
    (["construct", "c-gadget", "--gamma-prime", "c5.g6"], "construct c-gadget", EXIT_OK),
    (["construct", "distinguisher", "--T", "p4.g6", "--t", "3"], "construct distinguisher", EXIT_OK),
    (["construct", "factor-extremal", "--p", "1", "--q", "3", "--r", "3"], "construct factor-extremal", EXIT_OK),
    (
        ["construct", "determiner-chain", "--T", "p3.g6", "--determiner", "k4.g6", "--beta", "0,1"],
        "construct determiner-chain",
        EXIT_OK,
    ),
    (["arrows", "--g", "s2.g6", "--h", "k3.g6", "--f", "c5.g6"], "arrows", EXIT_OK),
    (["ramsey-number", "--g", "p4.g6", "--h", "k3.g6", "--cap", "10"], "ramsey-number", EXIT_OK),
    (["minimal", "--f", "s3.g6", "--g", "s1.g6", "--h", "s3.g6"], "minimal", EXIT_OK),
    (
        ["equiv-scan", "--g1", "s2.g6", "--h1", "k3.g6", "--g2", "s2.g6", "--h2", "k3k2.g6", "--max-vertices", "4"],
        "equiv-scan",
        EXIT_OK,
    ),
    (["factor", "c6.g6", "--k", "1"], "factor", EXIT_OK),
    (["belck", "s3.g6", "--p", "1", "--d", "0"], "belck", EXIT_OK),
    (["recolor", "walk", "f.g6", "col.txt", "--s", "2", "--t", "3"], "recolor walk", EXIT_OK),
    (
        ["recolor", "woven", "host.g6", "hostcol.txt", "--g", "s2.g6", "--a", "1", "--b", "2", "--t", "6"],
        "recolor woven",
        EXIT_OK,
    ),
    (["verify-determiner", "--d", "k3.g6", "--beta", "0,1", "--T", "p4.g6", "--t", "3"], "verify-determiner", EXIT_OK),
    # an axiom the budget leaves undecided: exit 3, with the report
    (
        ["verify-determiner", "--d", "k4.g6", "--beta", "0,1", "--T", "p3.g6", "--t", "3", "--budget", "0"],
        "verify-determiner",
        EXIT_INDETERMINATE,
    ),
]


@pytest.mark.parametrize("argv, label, code", REPORT_CASES, ids=[f"{c[1]} exit {c[2]}" for c in REPORT_CASES])
def test_every_command_writes_one_report(files, capsys, argv, label, code):
    tmp_path, write = files
    graphs = {"s1": star(1), "s2": star(2), "s3": star(3), "k3": clique(3), "k4": clique(4), "c5": cycle(5)}
    graphs.update(c6=cycle(6), p3=path(3), p4=path(4), k3k2=clique_with_pendants(3, 1, 2))
    f_graph = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    base = list(itertools.combinations(range(6), 2))
    host = Graph(10, base + [(6, 7), (8, 9)])
    graphs.update(f=f_graph, host=host)
    for name, graph in graphs.items():
        write(f"{name}.g6", graph)
    (tmp_path / "col.txt").write_text(
        coloring_to_text(EdgeColoring(f_graph, red=[(2, 3)], blue=[(0, 1), (1, 2), (0, 2)]))
    )
    (tmp_path / "hostcol.txt").write_text(coloring_to_text(EdgeColoring(host, red=[(6, 7), (8, 9)], blue=base)))
    assert main(["--seed", "11", *argv]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"schema", "command", "inputs", "verdict", "nodes_explored", "elapsed", "seed"}
    assert report["command"] == label and report["seed"] == 11


def _leaves(parser):
    """The parsers under `parser` with no subcommand of their own: one per command that runs."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [parser]
    return [leaf for p in actions[0].choices.values() for leaf in _leaves(p)]


def test_every_subcommand_has_a_handler_and_a_report_case():
    leaves = _leaves(build_parser())
    assert len(leaves) == 21  # 7 commands, 12 construct kinds, 2 recolor modes
    for p in leaves:
        assert callable(p.get_default("handler")), p.prog
        # the report's label is the command as typed: "construct star"
        assert p.get_default("label") == p.prog.removeprefix("ramseylab "), p.prog
    assert {p.get_default("label") for p in leaves} == {label for _, label, _ in REPORT_CASES}

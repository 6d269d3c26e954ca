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
from ramseylab.arrowing import verify_determiner
from ramseylab.cli import (
    EXIT_BAD_INPUT,
    EXIT_INDETERMINATE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from ramseylab.families import clique, cycle, path, star
from ramseylab.formats import coloring_to_text, graph_to_graph6
from ramseylab.graphs import BLUE, EdgeColoring, Graph


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


def test_ramsey_number_cli(files, capsys):
    _, write = files
    g = write("p4.g6", path(4))
    h = write("k3.g6", clique(3))
    code, report = run(capsys, ["ramsey-number", "--g", g, "--h", h, "--cap", "10"])
    assert code == EXIT_OK
    assert report["schema"] == 1
    assert report["verdict"]["ramsey_number"] == 7
    assert set(report["inputs"]) == {g, h}


def test_construct_cli(files, capsys):
    _, write = files
    code, report = run(capsys, ["construct", "clique-pendants", "--t", "6", "--a", "2", "--b", "3"])
    assert code == EXIT_OK
    from ramseylab.families import clique_with_pendants
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


def test_verify_determiner_library_direct():
    results = verify_determiner(clique(3), (0, 1), path(4), 3)
    assert results["beta_forced_red"] is False
    assert results["beta_closure_is_clique"] is True
    # closure check fails when the neighborhood is bigger than K_t
    results2 = verify_determiner(clique(4), (0, 1), path(4), 3)
    assert results2["beta_closure_is_clique"] is False


def test_cli_import_leaves_numpy_unloaded():
    # A fresh interpreter, because test plugins may already have loaded numpy.
    src = str(Path(ramseylab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, ramseylab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
    other = EdgeColoring.monochromatic(clique(3), BLUE)
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


def test_construct_reports_the_seed_it_used(files, capsys):
    argv = ["construct", "hypergraph-blowup", "--t", "3", "--girth", "3"]
    argv += ["--min-degree", "2", "--n", "9"]
    _, implicit = run(capsys, argv)
    _, explicit = run(capsys, ["--seed", "0", *argv])
    implicit.pop("elapsed")
    explicit.pop("elapsed")
    assert implicit == explicit
    assert explicit["seed"] == 0


def test_verify_determiner_bad_beta(files, capsys):
    _, write = files
    d = write("k3.g6", clique(3))
    T = write("p4.g6", path(4))
    code = main(["verify-determiner", "--d", d, "--beta", "0,5", "--T", T, "--t", "3"])
    assert code == EXIT_USAGE
    capsys.readouterr()


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

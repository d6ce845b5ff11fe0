import io

import pytest

from scramblegon import cli
from scramblegon import fixtures as fx
from scramblegon import mel
from scramblegon import multigraph as mg


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_map(out):
    pairs = [line.split("=", 1) for line in out.strip().splitlines() if "=" in line]
    return dict(pairs)


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(mel.write_mel(g))
    return str(p)


def test_gen_emits_parseable_mel(capsys):
    code, out, _ = run(capsys, "gen", "hypercube", "3")
    assert code == 0
    assert mel.parse_mel(out) == mg.hypercube(3)


def test_gen_validation_errors(capsys):
    assert run(capsys, "gen", "dodecahedron", "1")[0] == 2
    assert run(capsys, "gen", "random-graph", "6", "50")[0] == 2  # missing --seed
    assert run(capsys, "gen", "path", "3", "3")[0] == 2           # wrong arity
    with pytest.raises(SystemExit):  # argparse handles missing positionals
        cli.main(["gen"])
    code, out, _ = run(capsys, "gen", "random-graph", "6", "50", "--seed", "9")
    assert code == 0
    assert mel.parse_mel(out) == mg.random_graph(6, 0.5, seed=9)


def test_info_machine_keys(capsys, tmp_path):
    path = write_graph(tmp_path, "q3.mel", mg.hypercube(3))
    code, out, _ = run(capsys, "--machine", "info", path)
    assert code == 0
    got = machine_map(out)
    assert got["n"] == "8"
    assert got["edges"] == "12"
    assert got["simple"] == "True"
    assert got["min_degree"] == "3"
    assert got["edge_connectivity"] == "3"
    assert got["vertex_connectivity"] == "3"
    assert got["components"] == "1"
    assert got["independence_number"] == "4"


def test_gonality_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(mel.write_mel(mg.hypercube(3))))
    code, out, _ = run(capsys, "--machine", "gonality", "-")
    assert code == 0
    got = machine_map(out)
    assert got["gonality"] == "4"
    witness = [int(c) for c in got["witness"].split()]
    assert sum(witness) == 4


def test_rank_and_reduce(capsys, tmp_path):
    path = write_graph(tmp_path, "c5.mel", mg.cycle(5))
    dpath = tmp_path / "d.txt"
    dpath.write_text("5\n2 0 0 0 0\n")
    code, out, _ = run(capsys, "--machine", "rank", path, str(dpath), "--cap", "2")
    assert code == 0
    assert machine_map(out)["rank"] == "1"

    dpath.write_text("5\n3 -1 0 0 0\n")
    code, out, _ = run(capsys, "--machine", "reduce", path, str(dpath), "--q", "2")
    assert code == 0
    got = machine_map(out)
    reduced = [int(c) for c in got["reduced"].split()]
    assert sum(reduced) == 2
    assert all(c >= 0 for i, c in enumerate(reduced) if i != 2)
    assert int(got["firings"]) >= 1


def test_scramble_order_command(capsys, tmp_path):
    path = write_graph(tmp_path, "q3.mel", mg.hypercube(3))
    spath = tmp_path / "s.scr"
    spath.write_text("0 4\n1 5\n2 6\n3 7\n")
    code, out, _ = run(capsys, "--machine", "scramble-order", path, str(spath))
    assert code == 0
    got = machine_map(out)
    assert got["order"] == "4"
    assert got["hitting"] == "4"
    assert got["egg_cut"] == "4"


def test_sn_bounds_command(capsys, tmp_path):
    path = write_graph(tmp_path, "q3.mel", mg.hypercube(3))
    code, out, _ = run(capsys, "--machine", "sn-bounds", path, "--brute")
    assert code == 0
    got = machine_map(out)
    assert got["lower"] == "4" and got["upper"] == "4"
    assert got["exact"] == "True"
    # --brute 0 means no cap; a negative cap is refused
    assert run(capsys, "--machine", "sn-bounds", path, "--brute", "0")[1] == out
    code, _, err = run(capsys, "sn-bounds", path, "--brute", "-3")
    assert code == 2 and "max_eggs" in err


def test_edge_and_product_scramble_commands(capsys, tmp_path):
    path = write_graph(tmp_path, "c4.mel", mg.cycle(4))
    code, out, _ = run(capsys, "edge-scramble", path)
    assert code == 0
    assert sorted(out.split("\n")[:-1]) == ["0 1", "0 3", "1 2", "2 3"]
    hpath = write_graph(tmp_path, "p2.mel", mg.path(2))
    code, out, _ = run(capsys, "product-scramble", path, hpath, "--k", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2 * 4  # 2 copies x C(4,1)


def test_product_and_cone_commands(capsys, tmp_path):
    a = write_graph(tmp_path, "a.mel", mg.cycle(4))
    b = write_graph(tmp_path, "b.mel", mg.cycle(5))
    code, out, _ = run(capsys, "product", a, b)
    assert code == 0
    assert mel.parse_mel(out) == mg.cartesian_product(mg.cycle(4), mg.cycle(5))
    code, out, _ = run(capsys, "cone", a, "2")
    assert code == 0
    assert mel.parse_mel(out) == mg.cone(mg.cycle(4), 2)


def test_certify_command(capsys, tmp_path):
    a = write_graph(tmp_path, "a.mel", mg.cycle(4))
    b = write_graph(tmp_path, "b.mel", mg.cycle(5))
    code, out, _ = run(capsys, "--machine", "certify", a, b)
    assert code == 0
    got = machine_map(out)
    assert got["statement"] == "biconnected-gon2"
    assert got["certified"] == "8"
    k6 = write_graph(tmp_path, "k6.mel", mg.complete(6))
    code, out, _ = run(capsys, "--machine", "certify", k6, k6)
    assert code == 0
    got = machine_map(out)
    assert got["certified"] == "open"
    assert (got["lower"], got["upper"]) == ("18", "30")


def test_every_printed_gonality_is_computed(capsys, tmp_path):
    # no option passes a caller's gonality into an answer: each exits 2
    ring = [(i, (i + 1) % 5, 1) for i in range(5)]
    petersen = mg.from_edge_list(10, ring + [(i, i + 5, 1) for i in range(5)]
                                 + [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)])
    petersen = write_graph(tmp_path, "petersen.mel", petersen)
    k2 = write_graph(tmp_path, "k2.mel", mg.path(2))
    wedge = write_graph(tmp_path, "wedge_middles.mel", fx.wedge_middles())
    code, out, _ = run(capsys, "--machine", "gonality", petersen)
    assert (code, machine_map(out)["gonality"]) == (0, "4")
    code, out, _ = run(capsys, "--machine", "certify", k2, wedge)
    got = machine_map(out)
    assert (code, got["certified"], got["lower"], got["upper"]) == (0, "open", "4", "6")
    for argv in (["gonality", petersen, "--lower", "5"], ["gonality", wedge, "--upper", "2"],
                 ["certify", k2, wedge, "--gon-h", "2"], ["certify", k2, wedge, "--gon-g", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--machine"] + argv)
        assert exc.value.code == 2


def test_reduce_alpha_command(capsys, tmp_path):
    path = write_graph(tmp_path, "c4.mel", mg.cycle(4))
    code, out, _ = run(capsys, "--machine", "reduce-alpha", path)
    assert code == 0
    got = machine_map(out)
    assert got["alpha"] == "2" and got["m"] == "4"
    bad = write_graph(tmp_path, "c2.mel", mg.cycle(2))
    assert run(capsys, "reduce-alpha", bad)[0] == 2


def test_fixtures_command(capsys, tmp_path):
    outdir = tmp_path / "fx"
    code, out, _ = run(capsys, "--machine", "fixtures", "--out", str(outdir), "--check")
    assert code == 0
    assert (outdir / "cube.mel").exists()
    assert mel.parse_mel((outdir / "cube.mel").read_text()).n == 8
    assert "fail" not in out.replace("|pass", "")


def test_error_exit_codes(capsys, tmp_path):
    assert run(capsys, "info", str(tmp_path / "missing.mel"))[0] == 2
    bad = tmp_path / "bad.mel"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "info", str(bad))
    assert code == 2
    assert "error" in err


def test_over_budget_gonality_exits_2(capsys, tmp_path):
    path = write_graph(tmp_path, "k14.mel", mg.complete(14))
    code, _, err = run(capsys, "gonality", path)
    assert code == 2
    assert "candidate-box budget" in err

import argparse
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


def test_gen_argument_errors_name_no_line(capsys):
    # no text is read, so the message names the arguments, not a line
    for argv, message in ((["dodecahedron", "1"], "unknown family 'dodecahedron'"),
                          (["random-graph", "6", "50"], "randomized generators require --seed"),
                          (["complete", "2", "3"], "complete expects 1 size argument(s): n")):
        code, _, err = run(capsys, "gen", *argv)
        assert code == 2
        assert err.startswith("error: %s" % message)
        assert "line" not in err


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
    assert out == ("lower=4\nupper=4\nlower_source=edge scramble\n"
                   "upper_source=gonality\nexact=True\n")
    # --brute 0 means no cap; a negative cap is refused
    assert run(capsys, "--machine", "sn-bounds", path, "--brute", "0")[1] == out
    code, _, err = run(capsys, "sn-bounds", path, "--brute", "-3")
    assert code == 2 and "max_eggs" in err
    # the oracle closes C3 x C4 where the gonality search is skipped
    path = write_graph(tmp_path, "c3c4.mel", mg.cartesian_product(mg.cycle(3), mg.cycle(4)))
    code, out, _ = run(capsys, "--machine", "sn-bounds", path, "--budget", "0", "--brute")
    assert code == 0
    assert out == ("lower=6\nupper=6\nlower_source=edge scramble\n"
                   "upper_source=brute force\nexact=True\n")


def test_sn_bounds_names_each_lower_bound_source(capsys, tmp_path):
    # the vertex scramble gives 3 and the edge scramble no more; the oracle
    # finds sn = 4 with eight eggs, and that witness as a user scramble
    # gives 4 too
    g = mg.from_edge_list(6, [(u, v, 1) for u, v in ((0, 1), (0, 2), (0, 3), (0, 5), (1, 2),
                                                     (1, 3), (1, 4), (2, 4), (3, 4), (3, 5))])
    path = write_graph(tmp_path, "g.mel", g)
    code, out, _ = run(capsys, "--machine", "sn-bounds", path)
    assert code == 0
    assert out == ("lower=3\nupper=4\nlower_source=vertex scramble\n"
                   "upper_source=gonality\nexact=False\n")
    code, out, _ = run(capsys, "--machine", "sn-bounds", path, "--brute")
    assert code == 0
    assert out == ("lower=4\nupper=4\nlower_source=brute force\n"
                   "upper_source=gonality\nexact=True\n")
    spath = tmp_path / "oracle.scr"
    spath.write_text("0 5\n1 2\n1 4\n2 4\n3 5\n0 1 3\n0 2 3\n0 3 4\n")
    code, out, _ = run(capsys, "--machine", "sn-bounds", path, "--scramble", str(spath))
    assert code == 0
    assert out == ("lower=4\nupper=4\nlower_source=user scramble\n"
                   "upper_source=gonality\nexact=True\n")


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
    assert got["statement"] == "uniform-connectivity"
    assert got["certified"] == "8"
    assert got["proves"] == "sn,gon"
    assert out.endswith("certified=8\nproves=sn,gon\n")
    assert run(capsys, "certify", a, b)[1].endswith("\ncertified sn = gon = 8\n")
    # rook proves gon only: sn(K4 [] K4) = 11
    k4 = write_graph(tmp_path, "k4.mel", mg.complete(4))
    assert run(capsys, "--machine", "certify", k4, k4)[1].endswith("certified=12\nproves=gon\n")
    assert run(capsys, "certify", k4, k4)[1].endswith("\ncertified gon = 12\n")
    k6 = write_graph(tmp_path, "k6.mel", mg.complete(6))
    code, out, _ = run(capsys, "--machine", "certify", k6, k6)
    assert code == 0
    assert out == ("statement=open\ncertified=open\nlower=18\nupper=30\n"
                   "lower_source=k=3 product scramble (G,H)\nupper_source=factor gonality\n")
    code, out, _ = run(capsys, "certify", k6, k6)
    assert code == 0
    assert out == ("statement: open\nnot certified; open bounds:\nlower: 18\nupper: 30\n"
                   "lower_source: k=3 product scramble (G,H)\nupper_source: factor gonality\n")


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
    code, out, _ = run(capsys, "reduce-alpha", path)
    assert (code, out.splitlines()[:3]) == (0, ["alpha: 2", "m: 4", "cone graph:"])
    assert mel.parse_mel(out.split("cone graph:\n", 1)[1]) == mg.cone(mg.cycle(4), 4)
    # the solver is not a CLI option
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce-alpha", path, "--via", "gonality"])
    assert exc.value.code == 2


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
    # 2|E| and every chip must fit in int64
    for total, text in ((2 ** 62, "2 1\n0 1 %d\n" % 2 ** 62), (2 ** 63, "2 1\n0 1 %d\n" % 2 ** 63),
                        (2 ** 62, "2 2\n0 1 %d\n0 1 %d\n" % (2 ** 62, 2 ** 62))):
        bad.write_text(text)
        assert run(capsys, "--machine", "info", str(bad)) == (
            2, "", "error: line 2: edge multiplicities total %d, at or above the limit 2**62\n" % total)
    k2 = write_graph(tmp_path, "k2.mel", mg.path(2))
    chips = tmp_path / "chips.txt"
    chips.write_text("2\n%d 0\n" % 2 ** 63)
    for argv in (["rank", k2, str(chips), "--cap", "1"], ["reduce", k2, str(chips), "--q", "0"]):
        assert run(capsys, *argv) == (2, "", "error: line 2: chip %d outside the int64 range\n" % 2 ** 63)
    # chips that fit in int64 but whose q-reduction could leave it
    k2 = write_graph(tmp_path, "k2.mel", mg.from_edge_list(2, [(0, 1, 2 ** 61)]))
    chips.write_text("2\n%d %d\n" % (-2 ** 62, 2 ** 62 + 5))
    assert run(capsys, "--machine", "reduce", k2, str(chips), "--q", "1") == (
        2, "", "error: chips could total %d in absolute value during q-reduction, past the "
               "int64 limit 2**63 - 1\n" % (2 ** 63 + 5))


def test_inputs_over_a_budget_exit_2_and_name_it(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "complete", "30000")
    assert (code, out) == (2, "")
    assert err == ("error: a 30000-vertex multiplicity matrix would take 6866.5 MiB, "
                   "over the 256 MiB matrix budget\n")
    assert run(capsys, "gen", "grid", "300", "300")[2].startswith("error: a 90000-vertex")
    big = tmp_path / "big.mel"
    big.write_text("30000 0\n")
    assert run(capsys, "--machine", "info", str(big)) == (2, "", err)
    p2 = write_graph(tmp_path, "p2.mel", mg.path(2))
    chips = tmp_path / "chips.txt"
    chips.write_text("2\n%d %d\n" % (2 ** 40, -2 ** 40))
    assert run(capsys, "--machine", "reduce", p2, str(chips), "--q", "0") == (
        2, "", "error: the firing script would hold %d firings, over the 4194304-firing "
               "script budget\n" % 2 ** 40)


def test_reduce_on_a_disconnected_host_exits_2(capsys, tmp_path):
    path = write_graph(tmp_path, "two.mel", mg.from_edge_list(4, [(0, 1, 1), (2, 3, 1)]))
    chips = tmp_path / "chips.txt"
    chips.write_text("4\n1 0 0 0\n")
    assert run(capsys, "--machine", "reduce", path, str(chips), "--q", "0") == (
        2, "", "error: q-reduction needs a connected host graph\n")


def test_a_failure_inside_a_verb_exits_1_as_an_internal_error(capsys, monkeypatch, tmp_path):
    def broken(g):
        raise RuntimeError("flow lost its way")

    monkeypatch.setattr(cli.inv, "edge_connectivity", broken)
    path = write_graph(tmp_path, "c4.mel", mg.cycle(4))
    code, _, err = run(capsys, "--machine", "info", path)
    assert code == 1
    assert err == "internal error: flow lost its way\n"


def test_over_budget_gonality_exits_2(capsys, tmp_path):
    path = write_graph(tmp_path, "k14.mel", mg.complete(14))
    code, _, err = run(capsys, "gonality", path)
    assert code == 2
    assert "candidate-box budget" in err


# one argv per verb, every option given
ONE_ARGV_PER_VERB = [
    ["gen", "random-graph", "6", "50", "--seed", "3"],
    ["--machine", "info", "g.mel"],
    ["gonality", "-"],
    ["rank", "g.mel", "d.txt", "--cap", "2"],
    ["reduce", "g.mel", "d.txt", "--q", "0"],
    ["scramble-order", "g.mel", "e.scr"],
    ["sn-bounds", "g.mel", "--scramble", "e.scr", "--budget", "5", "--brute"],
    ["edge-scramble", "g.mel"],
    ["product-scramble", "g.mel", "h.mel", "--k", "2"],
    ["product", "g.mel", "h.mel"],
    ["--machine", "--machine", "cone", "g.mel", "3"],
    ["certify", "g.mel", "h.mel", "--budget", "9"],
    ["reduce-alpha", "g.mel"],
    ["fixtures", "--out", "fx", "--check"],
]


def _count_parsers(monkeypatch):
    """Lists that gather, from here on, the verb of each flat parser built and
    the name of each verb parser built inside the full parser."""
    flat, full = [], []
    init, add_parser = cli._VerbParser.__init__, argparse._SubParsersAction.add_parser

    def flat_spy(self, verb, machine):
        flat.append(verb)
        init(self, verb, machine)

    def full_spy(self, name, **kwargs):
        full.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(cli._VerbParser, "__init__", flat_spy)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", full_spy)
    return flat, full


def test_a_verbs_own_parser_reads_its_argv_as_the_full_parser_does(monkeypatch):
    assert sorted(argv[argv.count("--machine")] for argv in ONE_ARGV_PER_VERB) == sorted(cli.VERBS)
    want = [cli.build_parser().parse_args(argv) for argv in ONE_ARGV_PER_VERB]
    flat, full = _count_parsers(monkeypatch)
    for argv, args in zip(ONE_ARGV_PER_VERB, want):
        del flat[:], full[:]
        assert cli._parse(argv) == args
        assert (flat, full) == ([argv[argv.count("--machine")]], [])


def outcome(capsys, parse, argv):
    """(exit code or namespace, stdout, stderr) of parsing argv."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _argv_corpus(path):
    """Help requests, leftovers and errors for every verb, with the flat
    parser's argument list around them; `path` stands for every file."""
    calls = [[], ["-h"], ["-h", "info"], ["--mach", "info", path], ["--machine", "info", path],
             ["bogus"], ["info", path, "extra"], ["info", path, "--machine"], ["info"],
             ["rank", path, path, "--cap", "x"], ["--machine", "--", "info", path],
             ["reduce", path, path], ["reduce", path, path, "--q", "x"],
             ["reduce", path, path, "--q", "-1"], ["reduce", path, path, "--q=0"],
             ["reduce", path, path, "--q"], ["reduce", "--q", "0", path, path],
             ["sn-bounds", path, "--brute", "-h"], ["sn-bounds", path, "--b", "3"],
             ["gen", "path", "-3"], ["info", "-"], ["--machine", "--machine", "info", path, "-h"]]
    for argv in ONE_ARGV_PER_VERB:
        lead = argv.count("--machine")
        verb, rest = argv[lead], [path if a.endswith((".mel", ".txt", ".scr")) else a
                                  for a in argv[lead + 1:]]
        calls += [[verb], [verb, "-h"], [verb, "--help"], [verb, "--he"], [verb, "--h"],
                  [verb] + rest + ["extra"], [verb] + rest + ["--bogus"],
                  [verb] + rest + ["--b"], [verb] + rest + ["--mach"],
                  ["--machine", verb] + rest + ["--machine"], [verb, "--"] + rest]
    return calls


def test_help_and_errors_match_the_full_parser_byte_for_byte(capsys, tmp_path):
    # the flat parser has no help option: a future option spelt `--h...`
    # would take `--h` and `--he` there, where the full parser prints help
    path = write_graph(tmp_path, "c4.mel", mg.cycle(4))
    calls = _argv_corpus(path)
    assert len(calls) == 176
    got = [outcome(capsys, cli._parse, argv) for argv in calls]
    want = [outcome(capsys, lambda argv: cli.build_parser().parse_args(argv), argv)
            for argv in calls]
    for argv, g, w in zip(calls, got, want):
        assert g == w, argv
    assert sum(isinstance(g[0], argparse.Namespace) for g in got) == 16
    # a leftover argument is reported under the usage line that lists every verb
    assert "{%s}" % ",".join(cli.VERBS) in got[calls.index(["info", path, "extra"])][2]


def test_each_call_builds_only_its_verbs_parser(capsys, monkeypatch, tmp_path):
    flat, full = _count_parsers(monkeypatch)
    path = write_graph(tmp_path, "c4.mel", mg.cycle(4))
    assert run(capsys, "--machine", "info", path)[0] == 0
    assert run(capsys, "--machine", "info", path)[0] == 0
    assert (flat, full) == (["info", "info"], [])  # no parser is kept between calls
    # help and errors build every verb's parser, on the fallback only
    for argv, verbs in ((["-h"], []), (["info", "-h"], ["info"]),
                        (["reduce", path, path], ["reduce"])):
        del flat[:], full[:]
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert (flat, full) == (verbs, list(cli.VERBS)) and len(full) == 14

import random

import pytest

from scramblegon import divisors as dv
from scramblegon import mel
from scramblegon import multigraph as mg
from scramblegon import scrambles as sc


def test_graph_roundtrip():
    for g in (mg.path(4), mg.cycle(2), mg.hypercube(3),
              mg.from_edge_list(5, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 0, 1)])):
        assert mel.parse_mel(mel.write_mel(g)) == g


def test_parse_mel_accepts_comments_and_default_multiplicity():
    g = mel.parse_mel("# a path\n3 2\n0 1\n\n1 2 1\n")
    assert g == mg.path(3)


def test_parse_mel_errors_carry_line_numbers():
    # edge lines go through from_edge_list's checks, and MEL adds the line
    cases = [
        ("", 1, "empty graph text (missing 'n m' header)"),
        ("x y\n", 1, "non-integer field in 'x y'"),
        ("3\n", 1, "expected 2-2 fields, got 1"),
        ("3 2\n0 1\n", 1, "header promises 2 edge lines, found 1"),
        ("3 1\n0 3\n", 2, "vertex index out of range: (0, 3)"),
        ("3 2\n0 1\n-1 2 4\n", 3, "vertex index out of range: (-1, 2)"),
        ("3 1\n1 1\n", 2, "loop edge at vertex 1"),
        ("3 1\n0 1 0\n", 2, "edge multiplicity must be >= 1, got 0"),
        ("3 1\n0 x\n", 2, "non-integer field in '0 x'"),
        ("# lead\n3 1\n0 1 2 9\n", 3, "expected 2-3 fields, got 4"),
        # 2|E| must fit in int64
        ("2 1\n0 1 %d\n" % 2 ** 62, 2, "edge multiplicities total %d" % 2 ** 62),
        ("2 1\n0 1 %d\n" % 2 ** 63, 2, "edge multiplicities total %d" % 2 ** 63),
        ("2 2\n0 1 %d\n0 1 %d\n" % (2 ** 62, 2 ** 62), 2, "edge multiplicities total %d" % 2 ** 62),
        ("2 2\n0 1 %d\n0 1 %d\n" % (2 ** 61, 2 ** 61), 3, "edge multiplicities total %d" % 2 ** 62),
    ]
    for text, line, message in cases:
        with pytest.raises(mel.MelError) as err:
            mel.parse_mel(text)
        assert err.value.line == line
        assert str(err.value).startswith("line %d: %s" % (line, message))
    g = mel.parse_mel("2 2\n0 1 %d\n0 1 %d\n" % (2 ** 61, 2 ** 61 - 1))
    assert g.edge_count() == 2 ** 62 - 1
    # a header over the matrix budget is refused before any edge line is
    # read, as from_edge_list refuses it, with no line added
    with pytest.raises(ValueError) as err:
        mel.parse_mel("30000 1\n0 0\n")
    assert not isinstance(err.value, mel.MelError)
    assert str(err.value).startswith("a 30000-vertex multiplicity matrix")


def _random_mel(rng):
    """(text, n, edges): a MEL text with comments, blank lines, default and
    repeated multiplicities, some of its edge lines bad, and the triples it
    lists."""
    n = rng.randrange(1, 7)
    lines, edges = [], []
    for _ in range(rng.randrange(0, 9)):
        u = rng.randrange(n)
        v = (u + rng.randrange(1, n)) % n if n > 1 else u
        k = rng.choice([None, 1, 2, 3])
        bad = rng.random()
        if bad < .03:
            u = rng.choice([-1, n])
        elif bad < .06:
            v = u
        elif bad < .09:
            k = rng.choice([0, -1])
        elif bad < .12:
            k = 2**rng.choice([61, 62])
        lines.append("%d %d" % (u, v) if k is None else "%d %d %d" % (u, v, k))
        edges.append((u, v, 1 if k is None else k))
        if rng.random() < .2:
            lines.append(rng.choice(["# a comment", "", "   "]))
    return "%d %d\n" % (n, len(edges)) + "\n".join(lines) + "\n", n, edges


def test_parse_mel_matches_from_edge_list_on_a_random_corpus():
    rng = random.Random(29)
    valid = 0
    for _ in range(800):
        text, n, edges = _random_mel(rng)
        edge_lines = [i for i, ln in enumerate(text.splitlines(), start=1)
                      if ln.strip() and not ln.startswith("#")][1:]
        try:
            expected = mg.from_edge_list(n, edges)
        except ValueError as exc:
            # the first edge the library refuses is the line MEL names
            first = next(i for i in range(len(edges)) if _refuses(n, edges[:i + 1]))
            with pytest.raises(mel.MelError) as err:
                mel.parse_mel(text)
            assert err.value.line == edge_lines[first]
            assert str(err.value) == "line %d: %s" % (edge_lines[first], exc)
        else:
            assert mel.parse_mel(text) == expected
            valid += 1
    assert 200 <= valid <= 600


def _refuses(n, edges):
    try:
        mg.from_edge_list(n, edges)
    except ValueError:
        return True
    return False


def test_divisor_roundtrip_and_validation():
    g = mg.cycle(4)
    d = dv.Divisor(g, [2, -1, 0, 3])
    assert mel.parse_divisor(mel.write_divisor(d), g.n) == [2, -1, 0, 3]
    with pytest.raises(mel.MelError):
        mel.parse_divisor("3\n1 2\n")          # promised 3, gave 2
    with pytest.raises(mel.MelError):
        mel.parse_divisor("2\n1 1\n", n=4)     # wrong host size
    with pytest.raises(mel.MelError):
        mel.parse_divisor("2\n1 x\n")
    assert mel.parse_divisor("2\n%d\n%d\n" % (2 ** 63 - 1, -2 ** 63)) == [2 ** 63 - 1, -2 ** 63]
    for chip in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(mel.MelError) as err:
            mel.parse_divisor("2\n0\n%d\n" % chip)
        assert err.value.line == 3


def test_scramble_roundtrip():
    g = mg.hypercube(3)
    s = sc.Scramble(g, [{0, 4}, {1, 5}, {2, 6}, {3, 7}])
    eggs = mel.parse_scramble(mel.write_scramble(s), g.n)
    assert sorted(sorted(e) for e in eggs) == [[0, 4], [1, 5], [2, 6], [3, 7]]
    with pytest.raises(mel.MelError):
        mel.parse_scramble("0 9\n", n=8)
    with pytest.raises(mel.MelError):
        mel.parse_scramble("# only comments\n")

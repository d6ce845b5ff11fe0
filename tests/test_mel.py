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
    cases = [
        ("", 1),                        # empty
        ("x y\n", 1),                   # non-integer header
        ("3\n", 1),                     # short header
        ("3 2\n0 1\n", 1),              # count mismatch reported at header
        ("3 1\n0 3\n", 2),              # vertex out of range
        ("3 1\n1 1\n", 2),              # loop
        ("3 1\n0 1 0\n", 2),            # zero multiplicity
        ("# lead\n3 1\n0 1 2 9\n", 3),  # too many fields
        # 2|E| must fit in int64
        ("2 1\n0 1 %d\n" % 2 ** 62, 2),
        ("2 1\n0 1 %d\n" % 2 ** 63, 2),
        ("2 2\n0 1 %d\n0 1 %d\n" % (2 ** 62, 2 ** 62), 2),
        ("2 2\n0 1 %d\n0 1 %d\n" % (2 ** 61, 2 ** 61), 3),
    ]
    for text, line in cases:
        with pytest.raises(mel.MelError) as err:
            mel.parse_mel(text)
        assert err.value.line == line
    g = mel.parse_mel("2 2\n0 1 %d\n0 1 %d\n" % (2 ** 61, 2 ** 61 - 1))
    assert g.edge_count() == 2 ** 62 - 1


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

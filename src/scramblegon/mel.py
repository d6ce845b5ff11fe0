"""Text serialization.

MEL v1 graphs: header line ``n m`` followed by m edge lines ``u v k`` where
the multiplicity k is optional and defaults to 1.  Lines starting with ``#``
are comments.  Edge lines stream into `from_edge_list`, whose checks (such
as a total under 2**62, so that 2|E| fits in int64) name the line.  Writers
emit sorted u < v lines with accumulated multiplicities.

Divisors: the vertex count n, then n int64 chip integers, whitespace-separated.
Scrambles: one egg per line, space-separated vertex ids.
"""

from .multigraph import from_edge_list


class MelError(ValueError):
    """Malformed graph/divisor/scramble text; carries the offending line."""

    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _int_fields(lineno, line, minimum, maximum):
    fields = line.split()
    if not minimum <= len(fields) <= maximum:
        raise MelError(lineno, "expected %d-%d fields, got %d" % (minimum, maximum, len(fields)))
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise MelError(lineno, "non-integer field in %r" % line) from None


def parse_mel(text):
    lines = list(_content_lines(text))
    if not lines:
        raise MelError(1, "empty graph text (missing 'n m' header)")
    lineno, header = lines[0]
    n, m = _int_fields(lineno, header, 2, 2)
    if n < 1:
        raise MelError(lineno, "vertex count must be >= 1")
    if m < 0:
        raise MelError(lineno, "edge-line count must be >= 0")
    if len(lines) - 1 != m:
        raise MelError(lineno, "header promises %d edge lines, found %d" % (m, len(lines) - 1))
    edge_line = None  # the line of the edge from_edge_list is reading, if any

    def edges():
        nonlocal edge_line
        for edge_line, line in lines[1:]:
            u, v, *k = _int_fields(edge_line, line, 2, 3)
            yield u, v, k[0] if k else 1
        edge_line = None

    try:
        return from_edge_list(n, edges())
    except ValueError as err:
        if edge_line is None or isinstance(err, MelError):
            raise
        raise MelError(edge_line, str(err)) from None


def write_mel(g):
    edges = g.edges()
    lines = ["%d %d" % (g.n, len(edges))] + ["%d %d %d" % edge for edge in edges]
    return "\n".join(lines) + "\n"


def parse_divisor(text, n=None):
    """Parse chip text; returns the chips list.  Layout is free-form."""
    tokens = []
    for lineno, line in _content_lines(text):
        for tok in line.split():
            tokens.append((lineno, tok))
    if not tokens:
        raise MelError(1, "empty divisor text")
    values = []
    for lineno, tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise MelError(lineno, "non-integer token %r" % tok) from None
    for (lineno, tok), value in zip(tokens[1:], values[1:]):
        if not -2 ** 63 <= value < 2 ** 63:
            raise MelError(lineno, "chip %s outside the int64 range" % tok)
    count = values[0]
    chips = values[1:]
    if count < 1 or len(chips) != count:
        raise MelError(tokens[0][0], "divisor promises %d chips, found %d" % (count, len(chips)))
    if n is not None and count != n:
        raise MelError(tokens[0][0], "divisor is on %d vertices but graph has %d" % (count, n))
    return chips


def write_divisor(divisor):
    return "%d\n%s\n" % (len(divisor.chips), " ".join(str(int(c)) for c in divisor.chips))


def parse_scramble(text, n=None):
    """Parse egg lines; returns a list of vertex-id lists (validation is the
    Scramble constructor's job, except for range checks done here)."""
    eggs = []
    for lineno, line in _content_lines(text):
        egg = _int_fields(lineno, line, 1, 10 ** 9)
        if n is not None and any(not 0 <= v < n for v in egg):
            raise MelError(lineno, "egg vertex out of range in %r" % line)
        eggs.append(egg)
    if not eggs:
        raise MelError(1, "empty scramble text")
    return eggs


def write_scramble(scramble):
    return "".join(" ".join(str(v) for v in sorted(egg)) + "\n" for egg in scramble.eggs)

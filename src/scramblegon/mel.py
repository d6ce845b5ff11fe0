"""Text serialization.

MEL v1 graphs: header line ``n m`` followed by m edge lines ``u v k`` where
the multiplicity k is optional and defaults to 1.  Lines starting with ``#``
are comments.  Writers emit sorted u < v lines with accumulated
multiplicities.

Divisors: the vertex count n, then n chip integers, whitespace-separated.
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
    edges = []
    for lineno, line in lines[1:]:
        fields = _int_fields(lineno, line, 2, 3)
        u, v = fields[0], fields[1]
        k = fields[2] if len(fields) == 3 else 1
        if not (0 <= u < n and 0 <= v < n):
            raise MelError(lineno, "vertex index out of range in %r" % line)
        if u == v:
            raise MelError(lineno, "loop edge at vertex %d" % u)
        if k < 1:
            raise MelError(lineno, "multiplicity must be >= 1 in %r" % line)
        edges.append((u, v, k))
    return from_edge_list(n, edges)


def write_mel(g):
    lines = ["%d %d" % (g.n, sum(1 for _ in g.edges()))]
    lines.extend("%d %d %d" % (u, v, k) for u, v, k in g.edges())
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

"""graph6 codec and the edge-coloring text format.

graph6 encoding follows the standard McKay format: a size header, then the
upper triangle of the adjacency matrix in column-major order packed into
6-bit groups offset by 63.  The long size form covers 63..258047 vertices.

Colorings are exchanged as plain text: a header line ``n m``, then one line
``u v R`` or ``u v B`` per edge.
"""

from __future__ import annotations

from .errors import RamseyLabError
from .graphs import BLUE, RED, Edge, EdgeColoring, Graph

GRAPH6_SHORT_MAX = 62
GRAPH6_LONG_MAX = 258047


class FormatError(RamseyLabError):
    pass


class MismatchError(FormatError):
    """A well-formed coloring file that colors another graph than the host."""


def _encode_size(n: int) -> str:
    if n <= GRAPH6_SHORT_MAX:
        return chr(n + 63)
    if n <= GRAPH6_LONG_MAX:
        return chr(126) + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    raise FormatError(f"graph6 supports at most {GRAPH6_LONG_MAX} vertices, got {n}")


def graph_to_graph6(g: Graph) -> str:
    header = _encode_size(g.n)
    bits: list[int] = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = group << 1 | b
        chars.append(chr(group + 63))
    return header + "".join(chars)


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise FormatError(f"invalid graph6 characters in {s!r}")
    if data[0] == 63:
        if len(data) < 4:
            raise FormatError("truncated graph6 long-form size")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body length {len(body)} != expected {need} for n={n}")
    bitstream = []
    for group in body:
        for s6 in (5, 4, 3, 2, 1, 0):
            bitstream.append(group >> s6 & 1)
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream[i]:
                edges.append((u, v))
            i += 1
    if any(bitstream[i:]):
        raise FormatError("nonzero padding bits in graph6 body")
    return Graph(n, edges)


def coloring_to_text(c: EdgeColoring) -> str:
    lines = [f"{c.host.n} {c.host.m}"]
    for u, v in c.host.edges:
        lines.append(f"{u} {v} {c.color((u, v))}")
    return "\n".join(lines) + "\n"


def coloring_from_text(text: str, host: Graph | None = None) -> EdgeColoring:
    """Parse a coloring file; when `host` is given the edge sets must match.

    Raises MismatchError when the file colors another graph than `host`, and
    FormatError when it is malformed.
    """
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 2:
        raise FormatError("coloring file must start with a 'n m' header line")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
    except ValueError as exc:
        raise FormatError(f"bad coloring header: {rows[0]}") from exc
    if n < 0 or m < 0:
        raise FormatError(f"negative count in coloring header: {rows[0]}")
    if host is not None and host.n != n:
        raise MismatchError(f"coloring file on {n} vertices does not match the {host.n}-vertex host graph")
    if len(rows) - 1 != m:
        raise FormatError(f"header promises {m} edges, file has {len(rows) - 1}")
    colors: dict[Edge, str] = {}
    for row in rows[1:]:
        if len(row) != 3 or row[2] not in (RED, BLUE):
            raise FormatError(f"bad coloring line: {' '.join(row)}")
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError as exc:
            raise FormatError(f"bad coloring line: {' '.join(row)}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise FormatError(f"loop ({u},{v}) in coloring file")
        e = (u, v) if u < v else (v, u)
        if e in colors:
            raise FormatError(f"duplicate edge {e} in coloring file")
        colors[e] = row[2]
    if host is None:
        host = Graph(n, colors.keys())
    elif host.edge_set() != colors.keys():
        raise MismatchError("coloring file does not match the host graph")
    return EdgeColoring.from_mapping(host, colors)

"""graph6 codec and the edge-coloring text format.

graph6 encoding follows the standard McKay format: a size header, then the
upper triangle of the adjacency matrix in column-major order packed into
6-bit groups offset by 63.  The long size form covers 63..258047 vertices.

Colorings are exchanged as plain text: a header line ``n m``, then one line
``u v R`` or ``u v B`` per edge.
"""

from __future__ import annotations

import binascii
from math import isqrt

from .errors import RamseyLabError
from .graphs import BLUE, RED, Edge, EdgeColoring, Graph

GRAPH6_SHORT_MAX = 62
GRAPH6_LONG_MAX = 258047
# graph6 writes a 6-bit group x as chr(x + 63), base64 as the x-th letter of
# its alphabet, so the two codes translate into each other byte for byte.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_GRAPH6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)


class FormatError(RamseyLabError):
    pass


class MismatchError(FormatError):
    """A well-formed coloring file that colors another graph than the host."""


def _encode_size(n: int) -> str:
    if n <= GRAPH6_SHORT_MAX:
        return chr(n + 63)
    if n <= GRAPH6_LONG_MAX:
        return chr(126) + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    raise ValueError(f"graph6 supports at most {GRAPH6_LONG_MAX} vertices, got {n}")


def graph_to_graph6(g: Graph) -> str:
    """The graph6 string of g; raises ValueError past GRAPH6_LONG_MAX vertices."""
    header = _encode_size(g.n)
    # The upper triangle column by column, as '0'/'1': bit u of adj[v] for
    # u < v, u = 0 first.
    stream = "".join(format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n))
    # Zero-padded to whole 3-byte blocks, base64 cuts the bits into 6-bit groups.
    pad = -len(stream) % 24
    data = (int(stream or "0", 2) << pad).to_bytes((len(stream) + pad) // 8, "big")
    groups = binascii.b2a_base64(data, newline=False)[: -(-len(stream) // 6)]
    return header + groups.translate(_BASE64_TO_GRAPH6).decode()


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    if not s.isascii() or min(s) < chr(63) or max(s) > chr(126):
        raise FormatError(f"invalid graph6 characters in {s!r}")
    if s[0] == chr(126):
        if len(s) < 4:
            raise FormatError("truncated graph6 long-form size")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    size = n * (n - 1) // 2
    need = (size + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body length {len(body)} != expected {need} for n={n}")
    groups = body.encode().translate(_GRAPH6_TO_BASE64)
    data = binascii.a2b_base64(groups + b"A" * (-len(groups) % 4))
    stream = format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")
    if "1" in stream[size:]:
        raise FormatError("nonzero padding bits in graph6 body")
    # Position p of the upper triangle is (u, v) with v(v-1)/2 <= p < v(v+1)/2.
    edges = []
    p = stream.find("1", 0, size)
    while p >= 0:
        v = (1 + isqrt(8 * p + 1)) // 2
        edges.append((p - v * (v - 1) // 2, v))
        p = stream.find("1", p + 1, size)
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
    red = [e for e, c in colors.items() if c == RED]
    return EdgeColoring(host, red, [e for e, c in colors.items() if c == BLUE])

"""Bit-exact graph6 codec plus a plain edge-list text format.

graph6 packs the upper triangle of the adjacency matrix column by column
(pair (i, j), i < j, ordered by j then i), six bits per printable byte at
offset 63.  Orders below 63 use a single order byte; 63..258047 use the
'~' escape with three bytes.  The 8-byte '~~' form is deliberately
rejected: this toolkit works at desk scale.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

from .graph import Graph, build_graph

_MAX_LONG_ORDER = 258047
_NON_PRINTABLE = re.compile("[^?-~]")  # graph6 bytes are 63..126
_SEXTETS = [format(k, "06b") for k in range(64)]


class Graph6Error(ValueError):
    """graph6 parse failure; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def encode_graph6(graph: Graph) -> str:
    if graph.n < 0:
        raise ValueError("negative order")
    return _encode_columns(_columns(graph)).decode("ascii")


def _columns(graph: Graph) -> Tuple[int, ...]:
    """The graph's columns, in the form ``_encode_columns`` reads."""
    columns = [0] * graph.n
    for j, row in enumerate(graph.adj):
        for i in row:
            if i < j:
                columns[j] |= 1 << (j - 1 - i)
    return tuple(columns)


def _encode_columns(columns: Sequence[int]) -> bytes:
    """graph6 of the graph on len(columns) vertices whose column j, the
    pairs (i, j) with i < j, is the j-bit number columns[j], read from
    i = 0 at its top bit (columns[0] is 0).  A search's leaf code has
    this form, so a canonical string is packed straight from it."""
    n = len(columns)
    if n >= _MAX_LONG_ORDER + 1:
        raise ValueError(
            f"order {n} needs the 8-byte graph6 form, which is not supported"
        )
    if n < 63:
        out = [n + 63]
    else:
        out = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    bits = nbits = 0  # the bits not yet packed, and their number
    for j in range(1, n):
        bits = bits << j | columns[j]
        nbits += j
        while nbits >= 6:
            nbits -= 6
            out.append((bits >> nbits) + 63)
            bits &= (1 << nbits) - 1
    if nbits:
        out.append((bits << 6 - nbits) + 63)
    return bytes(out)


def decode_graph6(text: str) -> Graph:
    """Decode one graph6 string, in time linear in its length.

    The adjacency bytes are joined into one string of '0'/'1' characters,
    and one walk over its set bits, with a running column start, reads
    each edge (i, j) once: j goes to row i and i to row j, in both the
    sorted neighbour rows and the bitmasks.  Columns come in ascending
    order, so every row comes out sorted.  Any character outside 63..126
    is rejected at its offset.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    bad = _NON_PRINTABLE.search(s)
    if bad is not None:
        raise Graph6Error(
            f"non-printable graph6 byte {ord(bad.group())}", bad.start()
        )
    data = s.encode("ascii")
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte order form is not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated extended order", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise Graph6Error("extended order used for n < 63", 0)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - pos}",
            pos,
        )
    seq = "".join([_SEXTETS[b - 63] for b in data[pos:]])
    pad = seq.find("1", nbits)
    if pad >= 0:
        raise Graph6Error("nonzero padding bits", pos + pad // 6)
    rows: List[List[int]] = [[] for _ in range(n)]
    bits = [0] * n
    j = 1  # the column of bit t is j, its row t - start
    start = 0
    t = seq.find("1", 0, nbits)
    while t >= 0:
        while t >= start + j:
            start += j
            j += 1
        i = t - start
        rows[i].append(j)
        rows[j].append(i)
        bits[i] |= 1 << j
        bits[j] |= 1 << i
        t = seq.find("1", t + 1, nbits)
    return Graph._from_rows(tuple(map(tuple, rows)), tuple(bits))


def parse_edge_list(text: str) -> Graph:
    """Edge-list format: one "u v" per line, 0-based; '#' comments and
    blank lines ignored.  The order is max endpoint + 1 (trailing isolated
    vertices are not representable; use graph6 for those)."""
    edges: List[Tuple[int, int]] = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer endpoint") from exc
        if u < 0 or w < 0:
            raise ValueError(f"line {lineno}: negative endpoint")
        edges.append((u, w))
        top = max(top, u, w)
    return build_graph(top + 1, edges)


def format_edge_list(graph: Graph) -> str:
    lines = [f"# n={graph.n} m={graph.m}"]
    lines.extend(f"{u} {w}" for u, w in graph.edges())
    return "\n".join(lines) + "\n"

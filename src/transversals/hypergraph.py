"""Hypergraph data model and text/JSON parsing."""

from __future__ import annotations

import json
from dataclasses import dataclass


# The largest vertex count: rows hold w-bit masks, and a header w of up
# to the 4 300 digits int() reads would fail deep in the engine instead.
MAX_W = 1 << 22


class HypergraphError(ValueError):
    """Malformed hypergraph input (bad header, empty edge, non-integer or
    out-of-range vertex) or a malformed vertex list."""


def brief_repr(value: object) -> str:
    """ascii(value) for an error message, or a placeholder when that is over
    40 characters; a huge int is never converted, which alone takes time
    quadratic in its digits (and fails past Python's digit limit)."""
    if not (isinstance(value, int) and value.bit_length() > 128):
        text = ascii(value)
        if len(text) <= 40:
            return text
    return f"<{type(value).__name__} too long to show>"


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count w (vertices are 1..w) plus an ordered list of edges.

    Edges are stored as ascending tuples of distinct vertices; duplicate
    vertices within an edge are collapsed.  Duplicate or nested edges are
    kept as given: they only restate constraints and removing them is not
    this type's job.  An empty edge is rejected because nothing can hit it,
    which would silently make every query answer trivial.
    """

    w: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        # type() rather than isinstance(): bool is an int subclass, and a
        # bool or float vertex would pass the range checks and give a
        # silently wrong count; w may have thousands of digits, so no
        # message quotes it
        if type(self.w) is not int or not 1 <= self.w <= MAX_W:
            raise HypergraphError(f"vertex count must be an integer in 1..{MAX_W}")
        cleaned = []
        # an edge is named by its 1-based index, never by its contents,
        # so the message stays one short line however large the edge is
        for i, edge in enumerate(self.edges, start=1):
            if not all(type(v) is int for v in edge):
                raise HypergraphError(f"edge {i} has a non-integer vertex")
            vertices = sorted(set(edge))
            if not vertices:
                raise HypergraphError(f"edge {i} is empty")
            if vertices[0] < 1 or vertices[-1] > self.w:
                raise HypergraphError(f"edge {i} has a vertex outside 1..{self.w}")
            cleaned.append(tuple(vertices))
        object.__setattr__(self, "edges", tuple(cleaned))

    @property
    def h(self) -> int:
        return len(self.edges)

    @property
    def d(self) -> int:
        """Largest edge size (0 when there are no edges)."""
        return max(map(len, self.edges), default=0)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the plain text format: header "w h", then h edge lines."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise HypergraphError("empty input")
    # the header, its numbers and the edge lines are never quoted, so a
    # message stays one short line however long the bad line is
    header = lines[0].split()
    if len(header) != 2:
        raise HypergraphError("malformed header, expected 'w h'")
    try:
        w, h = int(header[0]), int(header[1])
    except ValueError as exc:
        raise HypergraphError("malformed header, w and h must be integers") from exc
    if h < 0:
        raise HypergraphError("negative edge count")
    if len(lines) - 1 != h:
        raise HypergraphError(
            f"header announces {'more' if h > len(lines) - 1 else 'fewer'} edges "
            f"than the {len(lines) - 1} edge lines that follow")
    edges = []
    for i, line in enumerate(lines[1:], start=1):
        try:
            edges.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise HypergraphError(f"edge line {i} has a non-integer vertex") from exc
    return Hypergraph(w, tuple(edges))


def parse_vertex_list(text: str) -> tuple[int, ...]:
    """The vertices of a comma-separated list such as ``8,9``: a blank list
    is empty, an empty or non-integer token is an error."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise HypergraphError(f"bad vertex list {brief_repr(text)}") from exc


def render_hypergraph(hg: Hypergraph) -> str:
    """Canonical text form; parse_hypergraph(render_hypergraph(hg)) == hg."""
    lines = [f"{hg.w} {hg.h}"]
    lines.extend(" ".join(map(str, edge)) for edge in hg.edges)
    return "\n".join(lines) + "\n"


def load_hypergraph(path: str) -> Hypergraph:
    """Load from a file; JSON {"w": int, "edges": [[int]]} when the name
    ends in .json, the plain text format otherwise."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if not str(path).endswith(".json"):
        return parse_hypergraph(text)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise HypergraphError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict) or "w" not in data or "edges" not in data:
        raise HypergraphError('JSON hypergraph needs fields "w" and "edges"')
    edges = data["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise HypergraphError('"edges" must be a list of vertex lists')
    return Hypergraph(data["w"], tuple(tuple(e) for e in edges))

"""Serialization: edge-list text, instance JSON, coloring JSON, gadget JSON, DOT.

Every emitter is deterministic (sorted keys, sorted edge and pair lists) so
identical inputs always produce byte-identical output. Every object with an
"edges" array is written by emit_json, byte-identical to json.dumps with
sorted keys.
"""

from __future__ import annotations

import json

from .coloring import EdgeColoring, edge_coloring
from .errors import ParseError
from .graph import Graph, PairSet, canonical_pair, make_pairs, new_graph
from .reductions import Gadget, ReducedInstance, gadget_layers


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    return text


def load_json(text: str | bytes) -> object:
    try:
        return json.loads(_decode(text))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        raise ParseError("JSON nests too deeply") from None


def _int_token(token: str, line: int, column: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line, column) from None


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse "n m" followed by m lines "u v" (0-based, whitespace separated)."""
    lines = _decode(text).splitlines()
    rows: list[tuple[int, list[str]]] = []
    for number, raw in enumerate(lines, start=1):
        if raw.strip():
            rows.append((number, raw.split()))
    if not rows:
        raise ParseError("empty input", 1)

    def two_ints(row: tuple[int, list[str]]) -> tuple[int, int]:
        number, tokens = row
        if len(tokens) != 2:
            raise ParseError(f"expected two fields, got {len(tokens)}", number)
        a = _int_token(tokens[0], number, 1)
        b = _int_token(tokens[1], number, 2)
        return a, b

    n, m = two_ints(rows[0])
    if n < 0:
        raise ParseError("vertex count must be nonnegative", rows[0][0], 1)
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(rows) - 1}", rows[0][0])
    edges = [two_ints(row) for row in rows[1:]]
    return new_graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edge_list()]
    return "\n".join(lines) + "\n"


def _require_keys(obj: object, what: str, keys: tuple[str, ...]) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} JSON must be an object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ParseError(f"{what} JSON needs {missing[0]!r}")


def _count(obj: dict, key: str, least: int) -> int:
    """obj[key] as an integer >= least; JSON booleans do not count as integers."""
    value = obj[key]
    if type(value) is not int or value < least:
        raise ParseError(f"{key!r} must be an integer of at least {least}, got {value!r}")
    return value


def _int_pairs(obj: dict, key: str) -> list[tuple[int, int]]:
    """obj[key] as a list of [int, int] entries."""
    value = obj[key]
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list of pairs")
    for entry in value:
        u, v = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if type(u) is not int or type(v) is not int:
            raise ParseError(f"bad entry {entry!r} in {key!r}: expected [int, int]")
    return [tuple(entry) for entry in value]


def _instance_from_json_obj(obj: object) -> tuple[Graph, PairSet | None, int | None]:
    _require_keys(obj, "instance", ("n", "edges"))
    n = _count(obj, "n", 0)
    graph = new_graph(n, _int_pairs(obj, "edges"))
    pairs = make_pairs(_int_pairs(obj, "pairs"), n) if obj.get("pairs") is not None else None
    k = _count(obj, "k", 1) if obj.get("k") is not None else None
    return graph, pairs, k


def parse_instance(text: str | bytes | object, fmt: str = "auto") -> tuple[Graph, PairSet | None, int | None]:
    """Parse an instance in edge-list or JSON form, or an already parsed JSON value; auto-detects by default."""
    if not isinstance(text, (str, bytes)):
        return _instance_from_json_obj(text)
    body = _decode(text)
    if fmt == "auto":
        fmt = "json" if body.lstrip().startswith("{") else "edge-list"
    if fmt == "edge-list":
        return parse_edge_list(body), None, None
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    return _instance_from_json_obj(load_json(body))


def instance_json_obj(g: Graph, pairs: PairSet | None = None, k: int | None = None) -> dict:
    obj: dict = {"n": g.vertex_count, "edges": g.edge_order}  # json writes tuples as arrays
    if pairs is not None:
        obj["pairs"] = pairs.as_lists()
    if k is not None:
        obj["k"] = k
    return obj


def emit_json(obj: dict, ids: tuple = ((), ())) -> str:
    """json.dumps(obj, sort_keys=True) for an object with "n" and an "edges" list of
    vertex ids in 0..n-1, and maybe a nested "inner" one: their edges are joined from
    one pair of tables of "[u, " and "v]" strings (ids, made here unless it covers n)."""
    heads, tails = ids
    if len(heads) < obj["n"]:  # the top level, or an inner record read from outside that outgrows its host
        heads, tails = ids = [f"[{v}, " for v in range(obj["n"])], [f"{v}]" for v in range(obj["n"])]
    items = []
    for key in sorted(obj):
        value = obj[key]
        if key == "edges":
            text = "[" + ", ".join([heads[u] + tails[v] for u, v in value]) + "]"
        else:
            text = emit_json(value, ids) if key == "inner" else json.dumps(value, sort_keys=True)
        items.append(f"{json.dumps(key)}: {text}")
    return "{" + ", ".join(items) + "}"


def emit_instance(g: Graph, pairs: PairSet | None = None, k: int | None = None) -> str:
    return emit_json(instance_json_obj(g, pairs, k)) + "\n"


def to_dot(g: Graph, highlights: tuple[int, ...] | list[int] = ()) -> str:
    """DOT text for an undirected graph; highlighted vertices get doublecircle."""
    marked = set(highlights)
    lines = ["graph g {"]
    for v in range(g.vertex_count):
        attr = " [shape=doublecircle]" if v in marked else ""
        lines.append(f"  {v}{attr};")
    for u, v in g.edge_list():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_coloring(text: str | bytes, host: Graph) -> EdgeColoring:
    """Decode {"k": int, "colors": [[u, v, c], ...]} against a host graph."""
    obj = load_json(text)
    if not isinstance(obj, dict) or "k" not in obj or not isinstance(obj.get("colors"), list):
        raise ParseError("coloring JSON needs 'k' and a 'colors' list")
    k = obj["k"]
    if type(k) is not int or k < 1:
        raise ParseError("'k' must be a positive integer")
    assignment: dict[tuple[int, int], int] = {}
    for entry in obj["colors"]:
        u, v, col = entry if isinstance(entry, list) and len(entry) == 3 else (None,) * 3
        if type(u) is not int or type(v) is not int or type(col) is not int:
            raise ParseError(f"bad color triple {entry!r}")
        key = canonical_pair(u, v)
        if key in assignment:
            raise ParseError(f"edge ({u}, {v}) colored twice")
        assignment[key] = col
    try:
        return edge_coloring(host, k, assignment)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def dump_coloring(c: EdgeColoring) -> str:
    colors = [[u, v, col] for (u, v), col in zip(c.host.edge_list(), c.colors)]
    return json.dumps({"k": c.color_count, "colors": colors}, sort_keys=True) + "\n"


def gadget_json_obj(g: Gadget) -> dict:
    """Full recursive gadget serialization, enough to re-derive its coloring."""
    obj: dict = {
        "order": g.order,
        "n": g.graph.vertex_count,
        "edges": g.graph.edge_order,
        "base_vertices": list(g.base_vertices),
        "pairs": g.pairs.as_lists(),
        "layers": {str(v): tag for v, tag in sorted(gadget_layers(g).items())},
        "roles": {str(v): list(g.roles[v]) for v in sorted(g.roles)},
    }
    if g.inner is not None:
        obj["copies"] = {str(b): list(cs) for b, cs in sorted(g.copies.items())}
        obj["carried"] = {str(v): w for v, w in sorted(g.carried.items())}
        obj["inner"] = gadget_json_obj(g.inner)
    return obj


def gadget_from_json_obj(obj: object) -> Gadget:
    """Rebuild a gadget record verbatim. Only the JSON shapes are checked, on
    purpose, so deliberately corrupted gadgets can be fed to the checkers."""
    _require_keys(obj, "gadget", ("order", "n", "edges", "pairs", "base_vertices"))
    n = _count(obj, "n", 0)
    graph = new_graph(n, _int_pairs(obj, "edges"))
    pairs = make_pairs(_int_pairs(obj, "pairs"), n)
    inner = gadget_from_json_obj(obj["inner"]) if obj.get("inner") else None
    try:
        base = tuple(obj["base_vertices"])
        roles = {int(v): tuple(role) for v, role in obj.get("roles", {}).items()}
        copies = carried = None
        if obj.get("copies") is not None:
            copies = {int(b): tuple(cs) for b, cs in obj["copies"].items()}
        if obj.get("carried") is not None:
            carried = {int(v): w for v, w in obj["carried"].items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed gadget record: {exc}") from exc
    if not all(type(v) is int and 0 <= v < n for v in base):
        raise ParseError(f"'base_vertices' must be a list of vertices in 0..{n - 1}")
    return Gadget(graph, _count(obj, "order", 0), base, pairs, roles, inner, copies, carried)


def dump_gadget(g: Gadget) -> str:
    return emit_json(gadget_json_obj(g)) + "\n"


def reduced_instance_json_obj(r: ReducedInstance) -> dict:
    """Instance JSON plus base-vertex and layer-tag annotations."""
    obj = instance_json_obj(r.graph, r.gadget.pairs, r.source.k)
    obj["base_vertices"] = list(r.gadget.base_vertices)
    obj["layers"] = {str(v): tag for v, tag in sorted(gadget_layers(r.gadget).items())}
    return obj

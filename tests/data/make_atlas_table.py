"""Write atlas_2_7.jsonl: rc, src and both witnesses of every connected
graph with 2-7 vertices in the networkx graph atlas.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_atlas_table.py

Each line holds one graph: its vertex count, its edges in canonical order,
and per problem the optimum and the witness's colors as a digit string
aligned with those edges. The table tests read the file without networkx.
"""

import json
from pathlib import Path

import networkx as nx

from rainbowcon import new_graph, rc_exact, src_exact

OUT = Path(__file__).with_name("atlas_2_7.jsonl")


def main() -> None:
    lines = []
    for atlas_graph in nx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n < 2 or not nx.is_connected(atlas_graph):
            continue
        g = new_graph(n, atlas_graph.edges())
        row = {"n": n, "edges": [list(e) for e in g.edge_order]}
        for name, exact in (("rc", rc_exact), ("src", src_exact)):
            opt = exact(g)
            assert opt.value <= 10
            row[name] = opt.value
            row[f"{name}_colors"] = "".join(map(str, opt.witness.colors))
        lines.append(json.dumps(row, separators=(",", ":")))
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} graphs to {OUT.name}")


if __name__ == "__main__":
    main()

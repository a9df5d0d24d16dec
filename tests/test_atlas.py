"""The exhaustive table of every connected graph with 2-7 vertices.

tests/data/atlas_2_7.jsonl holds each graph's rc and src with the
witnesses' colors, written by tests/data/make_atlas_table.py from the
networkx graph atlas with the full-enumeration solvers. The solvers must
reproduce every value and every witness.
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcon import new_graph, rc_exact, src_exact

from oracles import brute_bridge_count

ROWS = [json.loads(line) for line in (Path(__file__).parent / "data" / "atlas_2_7.jsonl").read_text().splitlines()]


def test_table_covers_every_connected_graph_up_to_seven_vertices():
    counts = {}
    for row in ROWS:
        counts[row["n"]] = counts.get(row["n"], 0) + 1
    assert counts == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_exact_solvers_reproduce_the_table():
    for row in ROWS:
        g = new_graph(row["n"], [tuple(e) for e in row["edges"]])
        for name, exact in (("rc", rc_exact), ("src", src_exact)):
            opt = exact(g)
            got = (opt.value, "".join(map(str, opt.witness.colors)))
            assert got == (row[name], row[f"{name}_colors"]), (name, row)


def test_rc_is_at_least_the_number_of_bridges():
    # every u-v path between the far ends of two bridges crosses both, so bridges need distinct colors
    for row in ROWS:
        g = new_graph(row["n"], [tuple(e) for e in row["edges"]])
        bridges = brute_bridge_count(g)
        assert bridges <= row["rc"], row
        if g.edge_count == g.vertex_count - 1:  # on a tree every edge is a bridge and rc = m
            assert bridges == row["rc"] == g.edge_count, row


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ROWS), st.randoms(use_true_random=False))
def test_relabelling_vertices_keeps_rc_and_src(row, rnd):
    perm = list(range(row["n"]))
    rnd.shuffle(perm)
    g = new_graph(row["n"], [(perm[u], perm[v]) for u, v in row["edges"]])
    assert (rc_exact(g).value, src_exact(g).value) == (row["rc"], row["src"])

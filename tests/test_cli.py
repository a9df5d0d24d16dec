import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcon import (
    BudgetExceededError,
    IndexOutOfRangeError,
    ParseError,
    Path,
    all_pairs,
    geodesics,
    is_rainbow_connected,
    make_pairs,
    new_graph,
    simple_paths_up_to,
    subset_rc_leq,
    subset_src_leq,
)
from rainbowcon import cli, search, verify
from rainbowcon.cli import main
from rainbowcon.io import dump_gadget, emit_edge_list, emit_instance, gadget_json_obj, load_coloring
from rainbowcon.reductions import build_gadget, build_order2_gadget, Gadget

C4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_rc_on_c4(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", emit_edge_list(C4))
    code = main(["solve", "--problem", "rc", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "rc = 2"
    witness = load_coloring(out.splitlines()[1], C4)
    assert is_rainbow_connected(witness)


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    solve = ["solve", "--problem", "rc", "--input", write(tmp_path, "c4.txt", emit_edge_list(C4))]
    assert main(solve) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "nope"])
    assert exc.value.code == 2
    gadget = write(tmp_path, "gadget.json", dump_gadget(build_order2_gadget(3, make_pairs([(0, 1)]))))
    assert main(["verify", "--check", "witness", "--input", gadget]) == 0
    capsys.readouterr()
    assert main(solve) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


def test_main_looks_its_command_up_when_called(tmp_path, monkeypatch):
    solve = ["solve", "--problem", "rc", "--input", write(tmp_path, "c4.txt", emit_edge_list(C4))]
    assert main(solve) == 0  # the parser exists before the rebinding
    monkeypatch.setattr(cli, "cmd_solve", lambda args: 7)
    assert main(solve) == 7


def test_importing_the_cli_builds_no_parser():
    probe = "import rainbowcon.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"


def test_solve_chromatic_infeasible(tmp_path, capsys):
    path = write(tmp_path, "k4.txt", emit_edge_list(K4))
    code = main(["solve", "--problem", "chromatic", "--k", "3", "--input", path])
    assert code == 1
    assert "infeasible" in capsys.readouterr().out


def test_solve_disconnected_is_an_error(tmp_path, capsys):
    path = write(tmp_path, "broken.txt", emit_edge_list(new_graph(3, [(0, 1)])))
    code = main(["solve", "--problem", "rc", "--input", path])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_with_k_rejects_a_sparse_disconnected_graph_before_building_all_pairs(tmp_path, capsys):
    path = write(tmp_path, "sparse.json", json.dumps({"n": 1600, "edges": [[0, 1]]}))
    for problem in ("rc", "src"):
        assert main(["solve", "--problem", problem, "--k", "2", "--input", path]) == 2
        assert capsys.readouterr().err == "error: pair (0, 2) is disconnected\n"


def test_solve_subset_requires_pairs(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", emit_edge_list(C4))
    assert main(["solve", "--problem", "subset-rc", "--k", "2", "--input", path]) == 2
    inst = write(tmp_path, "inst.json", emit_instance(C4, make_pairs([(0, 2)], 4), 2))
    assert main(["solve", "--problem", "subset-rc", "--input", inst]) == 0


def test_solve_decision_mode_with_k(tmp_path, capsys):
    path = write(tmp_path, "c4.txt", emit_edge_list(C4))
    assert main(["solve", "--problem", "rc", "--k", "1", "--input", path]) == 1
    assert main(["solve", "--problem", "rc", "--k", "2", "--input", path]) == 0


def test_reduce_star(tmp_path, capsys):
    k3 = write(tmp_path, "k3.txt", emit_edge_list(new_graph(3, [(0, 1), (0, 2), (1, 2)])))
    code = main(["reduce", "--reduction", "star", "--k", "3", "--input", k3])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["n"] == 4 and len(payload["pairs"]) == 3 and payload["center"] == 3
    assert "star instance: 4 vertices, 3 edges, 3 pairs" in out


def test_reduce_rc_gadget_micro(tmp_path, capsys):
    inst = write(
        tmp_path,
        "edge.json",
        emit_instance(new_graph(2, [(0, 1)]), make_pairs([(0, 1)], 2), 2),
    )
    dot_file = tmp_path / "out.dot"
    code = main(
        ["reduce", "--reduction", "rc-gadget", "--input", inst, "--dot", str(dot_file)]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["edges"] == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert payload["base_vertices"] == [0, 1]
    dot = dot_file.read_text()
    assert "0 [shape=doublecircle];" in dot and "1 [shape=doublecircle];" in dot


def test_reduce_src_ext(tmp_path, capsys):
    star = new_graph(4, [(0, 3), (1, 3), (2, 3)])
    inst = write(
        tmp_path,
        "star.json",
        emit_instance(star, make_pairs([(0, 1), (0, 2), (1, 2)], 4), 3),
    )
    code = main(["reduce", "--reduction", "src-ext", "--input", inst])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert payload["n"] == 10
    assert "bipartite: True" in out


def test_reduce_invalid_order(tmp_path, capsys):
    inst = write(
        tmp_path,
        "edge.json",
        emit_instance(new_graph(2, [(0, 1)]), make_pairs([(0, 1)], 2), 1),
    )
    assert main(["reduce", "--reduction", "rc-gadget", "--input", inst]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_all_small(tmp_path, capsys):
    code = main(["verify", "--check", "all", "--n-max", "3", "--seeds", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    json_lines = [l for l in lines if l.startswith("{")]
    assert json_lines and all(json.loads(l)["passed"] for l in json_lines)
    assert any(l.startswith("total") for l in lines)


def test_verify_output_is_reproducible(capsys):
    argv = ["verify", "--check", "all", "--n-max", "3", "--seeds", "4", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_witness_on_corrupted_gadget_file(tmp_path, capsys):
    g = build_order2_gadget(3, make_pairs([(0, 1)], 3))
    sabotaged = Gadget(
        new_graph(g.graph.vertex_count, list(g.graph.edges) + [(0, 1)]),
        2,
        g.base_vertices,
        g.pairs,
        g.roles,
    )
    path = write(tmp_path, "bad_gadget.json", dump_gadget(sabotaged))
    code = main(["verify", "--check", "pair-distances", "--input", path])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out.splitlines()[0])
    assert not report["passed"] and report["counterexample"]["pair"] == [0, 1]
    # the healthy gadget passes through the same file path
    good = write(tmp_path, "good_gadget.json", dump_gadget(g))
    assert main(["verify", "--check", "witness", "--input", good]) == 0


def test_verify_single_checks_from_instance_json(tmp_path, capsys):
    k3 = new_graph(3, [(0, 1), (0, 2), (1, 2)])
    inst = write(tmp_path, "k3.json", emit_instance(k3, None, 3))
    assert main(["verify", "--check", "vc-equivalence", "--input", inst]) == 0
    star = new_graph(4, [(0, 3), (1, 3), (2, 3)])
    star_inst = write(
        tmp_path, "star.json", emit_instance(star, make_pairs([(0, 1), (0, 2), (1, 2)], 4), 3)
    )
    assert main(["verify", "--check", "src-equivalence", "--input", star_inst]) == 0
    assert main(["verify", "--check", "rc-equivalence", "--input", star_inst]) == 0
    assert main(["verify", "--check", "containment", "--input", star_inst]) == 0


@pytest.mark.parametrize("extra", ["", ', "note": "order"', ', "note": {"order": 2}'])
def test_only_a_top_level_order_key_makes_a_gadget_record(tmp_path, capsys, extra):
    text = '{"n": 3, "edges": [[0, 1], [1, 2]], "pairs": [[0, 2]], "k": 3' + extra + "}"
    assert main(["verify", "--check", "witness", "--input", write(tmp_path, "inst.json", text)]) == 0
    assert capsys.readouterr().err == ""


def test_demo_endings(capsys):
    assert main(["demo", "k3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rc(G') <= 3 certified by witness"
    assert main(["demo", "k4"]) == 0
    assert (
        capsys.readouterr().out.splitlines()[-1]
        == "rc(G') > 3 certified (containment + base exhaustion)"
    )
    assert main(["demo", "micro"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "rc(G') = 2"


def test_demo_exits_1_when_the_rc_check_fails(monkeypatch, capsys):
    real = cli.check_rc_equivalence
    monkeypatch.setattr(cli, "check_rc_equivalence", lambda inst: replace(real(inst), counterexample={"reason": "stub"}))
    assert main(["demo", "k4"]) == 1
    out = capsys.readouterr().out
    assert "certified" not in out
    assert out.splitlines()[-1] == 'rc(G\') check failed: {"reason": "stub"}'


@pytest.mark.parametrize("showcase", ["k3", "k4"])
def test_demo_builds_each_artefact_once(monkeypatch, capsys, showcase):
    calls = Counter()
    for module in (cli, verify):
        for name in ("subset_rc_leq", "subset_src_leq", "src_extension", "rc_reduction"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name, **kw: calls.update([_name]) or _real(*a, **kw))
    assert main(["demo", showcase]) == 0
    assert calls == {"subset_rc_leq": 1, "subset_src_leq": 1, "src_extension": 1, "rc_reduction": 1}


def test_output_flag_writes_file(tmp_path, capsys):
    src = write(tmp_path, "c4.txt", emit_edge_list(C4))
    out_file = tmp_path / "result.txt"
    code = main(["solve", "--problem", "rc", "--input", src, "--output", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text().startswith("rc = 2")


GOOD = '{"n": 2, "edges": [[0, 1]], "pairs": [[0, 1]]}'


def order4_gadget_text(drop_edge: bool) -> str:
    """An order-4 gadget record with one edge between non-base vertices dropped, or one added."""
    obj = json.loads(dump_gadget(build_gadget(3, make_pairs([(0, 1)], 3), 4)))
    edges, n = obj["edges"], obj["n"]
    if drop_edge:
        edges.remove(next(e for e in edges if min(e) >= 3))
    else:
        edges.append(next([u, v] for u in range(3, n) for v in range(u + 1, n) if [u, v] not in edges))
    return json.dumps(obj)


def mutated_gadget_text(order: int, mutate) -> str:
    """The record of the order-k gadget on three bases with the pair (0, 1), after mutate."""
    obj = gadget_json_obj(build_gadget(3, make_pairs([(0, 1)], 3), order))
    mutate(obj)
    return json.dumps(obj)


def empty_roles(obj):
    obj["roles"] = dict.fromkeys(obj["roles"], [])


def integer_tags(obj):
    obj["roles"] = {v: [0, *role[1:]] for v, role in obj["roles"].items()}


def cut_bridges(obj):
    obj["roles"] = {v: role[:1] if role[0] == "bridge" else role for v, role in obj["roles"].items()}


# 3^13 raw colorings of the star edges, past the exhaustion cap
STAR13_K4 = emit_instance(new_graph(14, [(i, 13) for i in range(13)]), make_pairs(K4.edges, 14), 3)
DEEP_GADGET = '{"order": 4, "n": 2, "edges": [], "pairs": [], "base_vertices": [0, 1], "inner": ' * 3000 + "null" + "}" * 3000


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve", "--problem", "rc"], '{"n": 2, "edges": [[0]]}'),
        (["solve", "--problem", "rc"], '{"n": 2, "edges": [[0, 1, 2]]}'),
        (["solve", "--problem", "rc"], '{"n": 2, "edges": [[0, "1"]]}'),
        (["solve", "--problem", "rc"], '{"n": 2, "edges": [[0, 1.0]]}'),
        (["solve", "--problem", "rc"], '{"n": 2, "edges": 5}'),
        (["solve", "--problem", "rc"], '{"n": true, "edges": []}'),
        (["solve", "--problem", "rc"], '{"n": 1, "edges": []}'),
        (["solve", "--problem", "rc"], "-1 0\n"),
        (["solve", "--problem", "subset-rc", "--k", "2"], '{"n": 2, "edges": [[0, 1]], "pairs": [5]}'),
        (["solve", "--problem", "subset-rc", "--k", "2"], '{"n": 2, "edges": [], "pairs": [[0, true]]}'),
        (["solve", "--problem", "subset-rc"], '{"n": 2, "edges": [[0, 1]], "pairs": [[0, 1]], "k": true}'),
        (["solve", "--problem", "rc", "--k", "0"], GOOD),
        (["solve", "--problem", "chromatic", "--k", "-1"], GOOD),
        (["verify", "--check", "witness"], '{"order": 2, "edges": [[0, 1]], "pairs": []}'),
        (["verify", "--check", "witness"], '{"order": 2, "n": 2, "edges": [[0, 1]], "pairs": [], '
                                           '"base_vertices": 7}'),
        (["verify", "--check", "witness", "--k", "0"], GOOD),
        (["verify", "--check", "nonpair-distances"], '{"order": 2, "n": 2, "edges": [[0, 1]], "pairs": [], '
                                                     '"base_vertices": [0, 5]}'),
        (["verify", "--n-max", "-1"], GOOD),
        pytest.param(["verify", "--check", "witness"], order4_gadget_text(drop_edge=False), id="foreign-edge"),
        pytest.param(["verify", "--check", "witness"], order4_gadget_text(drop_edge=True), id="dropped-edge"),
        pytest.param(["verify", "--n-max", "7"], GOOD, id="n-max-7"),  # rejected before any work
        pytest.param(["verify", "--check", "witness"], DEEP_GADGET, id="inner-3000-deep"),
        pytest.param(["verify", "--check", "src-equivalence"], STAR13_K4, id="src-exhaustion-3^13"),
        pytest.param(["verify", "--check", "rc-equivalence"], STAR13_K4, id="rc-exhaustion-3^13"),
        pytest.param(["verify", "--check", "witness"], mutated_gadget_text(2, empty_roles), id="order2-empty-roles"),
        pytest.param(["verify", "--check", "witness"], mutated_gadget_text(3, empty_roles), id="order3-empty-roles"),
        pytest.param(["verify", "--check", "witness"], mutated_gadget_text(3, integer_tags), id="order3-int-tags"),
        pytest.param(["verify", "--check", "witness"], mutated_gadget_text(2, cut_bridges), id="order2-cut-bridge"),
        pytest.param(["verify", "--check", "witness"], mutated_gadget_text(5, lambda o: o.update(order=1)),
                     id="order5-as-order1"),
        pytest.param(["verify", "--check", "witness"], mutated_gadget_text(7, lambda o: o.update(order=4)),
                     id="order7-as-order4"),
    ],
)
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, argv, text):
    path = write(tmp_path, "bad.json", text)
    assert main(argv + ["--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


ROLE_JUNK = st.one_of(st.integers(-2, 40), st.sampled_from(["base", "anchor", "bridge", "bridge_left", "copy", "x_twin"]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 5]), st.sampled_from(["pair-distances", "nonpair-distances", "witness"]), st.data())
def test_mutated_gadget_records_keep_the_exit_contract(tmp_path_factory, order, check, data):
    obj = gadget_json_obj(build_gadget(3, make_pairs([(0, 1)], 3), order))
    for field in data.draw(st.lists(st.sampled_from(["roles", "order", "copies", "base_vertices"]), min_size=1, max_size=3)):
        record = obj
        for _ in range(data.draw(st.integers(0, (order - 2) // 2))):
            record = record["inner"]
        n = record["n"]
        if field == "roles":
            vertex = data.draw(st.sampled_from(sorted(record["roles"])))
            record["roles"][vertex] = data.draw(st.one_of(ROLE_JUNK, st.lists(ROLE_JUNK, max_size=4)))
        elif field == "order":
            record["order"] = data.draw(st.integers(-1, 8))
        elif field == "copies":
            base = data.draw(st.sampled_from(["0", "1", "2"]))
            record.setdefault("copies", {})[base] = data.draw(st.lists(st.integers(-1, n), max_size=4))
        else:
            record["base_vertices"] = data.draw(st.lists(st.integers(-1, n), max_size=5))
    path = tmp_path_factory.getbasetemp() / "mutated-gadget.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", "--check", check, "--input", str(path)]) in (0, 1, 2)


JSON_JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=2), st.lists(st.integers(-1, 3), max_size=3))
INSTANCE_COMMANDS = [
    ["solve", "--problem", problem] for problem in ("rc", "src", "subset-rc", "subset-src", "chromatic")
] + [["reduce", "--reduction", r] for r in ("star", "src-ext", "rc-gadget")] + [
    ["verify", "--check", check]
    for check in ("pair-distances", "nonpair-distances", "witness", "containment", "vc-equivalence",
                  "src-equivalence", "rc-equivalence")
]
C5_INSTANCE = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]], "pairs": [[0, 2], [1, 3]], "k": 2}
STAR_INSTANCE = {"n": 5, "edges": [[0, 4], [1, 4], [2, 4], [3, 4]], "pairs": [[0, 1], [1, 2], [2, 3]], "k": 3}


def mutated_field(data, field, value, n):
    """A replacement for instance field `field` (KeyError: drop the key): junk, a near-miss
    count for n and k, or the pair list with one entry added, dropped or replaced."""
    how = data.draw(st.sampled_from(["drop", "junk", "near", "near"]))
    if how != "near":
        return KeyError if how == "drop" else data.draw(JSON_JUNK)
    if field in ("n", "k"):
        return data.draw(st.integers(-1, 7 if field == "n" else 4))
    value = list(value) if isinstance(value, list) else []
    entry = st.one_of(st.lists(st.integers(-1, n), min_size=2, max_size=2), st.lists(JSON_JUNK, max_size=3), JSON_JUNK)
    if not value or data.draw(st.booleans()):
        return value + [data.draw(entry)]
    slot = data.draw(st.integers(0, len(value) - 1))
    return value[:slot] + ([] if data.draw(st.booleans()) else [data.draw(entry)]) + value[slot + 1:]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([C5_INSTANCE, STAR_INSTANCE]), st.sampled_from(INSTANCE_COMMANDS), st.data())
def test_mutated_instances_keep_the_exit_contract(tmp_path_factory, instance, argv, data):
    obj = dict(instance)
    for field in data.draw(st.lists(st.sampled_from(["n", "edges", "pairs", "k"]), min_size=1, max_size=3)):
        value = mutated_field(data, field, obj.get(field), instance["n"])
        if value is KeyError:
            obj.pop(field, None)
        else:
            obj[field] = value
    path = tmp_path_factory.getbasetemp() / "mutated-instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(argv + ["--input", str(path)]) in (0, 1, 2)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_solve_colorings_load_or_raise_parse_errors(tmp_path_factory, data):
    c5 = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    base = tmp_path_factory.getbasetemp()
    (base / "c5.txt").write_text(emit_edge_list(c5), encoding="utf-8")
    assert main(["solve", "--problem", "rc", "--input", str(base / "c5.txt"), "--output", str(base / "c5-rc.txt")]) == 0
    obj = json.loads((base / "c5-rc.txt").read_text(encoding="utf-8").splitlines()[1])
    for field in data.draw(st.lists(st.sampled_from(["k", "triple", "drop", "add", "colors"]), min_size=1, max_size=3)):
        if field == "k":
            obj["k"] = data.draw(st.one_of(st.integers(-1, 4), JSON_JUNK))
        elif field == "colors":
            obj["colors"] = data.draw(JSON_JUNK)
        elif not isinstance(obj.get("colors"), list):
            continue
        elif field == "add":
            obj["colors"].append(data.draw(st.one_of(JSON_JUNK, st.lists(st.integers(-1, 5), max_size=4))))
        elif obj["colors"]:
            slot = data.draw(st.integers(0, len(obj["colors"]) - 1))
            if field == "drop":
                del obj["colors"][slot]
            elif isinstance(obj["colors"][slot], list) and obj["colors"][slot]:
                triple = obj["colors"][slot]
                triple[data.draw(st.integers(0, len(triple) - 1))] = data.draw(st.one_of(st.integers(-1, 5), JSON_JUNK))
    try:
        c = load_coloring(json.dumps(obj), c5)
    except ParseError:
        return
    assert c.host == c5 and len(c.colors) == c5.edge_count and all(0 <= col < c.color_count for col in c.colors)


K12_EDGES = [(i, j) for i in range(12) for j in range(i)]


def test_budget_bounds_the_path_table(tmp_path, capsys):
    # without the edge 0-1, the pair (0, 1) has millions of simple paths of length <= 10;
    # the budget must stop their enumeration long before the table is built
    assert len(simple_paths_up_to(new_graph(12, K12_EDGES), 0, 1, 10, limit=1000)) == 1001
    k12_minus = write(tmp_path, "k12m.txt", emit_edge_list(new_graph(12, [e for e in K12_EDGES if e != (1, 0)])))
    assert main(["solve", "--problem", "rc", "--k", "10", "--budget", "1000", "--input", k12_minus]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: exceeded budget of 1000 path-table entries and search nodes\n"


def test_budget_bounds_the_search_phase(tmp_path, capsys):
    # K3,9 at src <= 2 has a small path table (135 geodesics) but a search of millions of
    # nodes, so only the budget's count of search nodes can stop it
    k39 = new_graph(12, [(i, j) for i in range(3) for j in range(3, 12)])
    assert sum(len(geodesics(k39, u, v)) for u, v in all_pairs(12) if not k39.has_edge(u, v)) == 135
    with pytest.raises(BudgetExceededError):
        subset_src_leq(k39, all_pairs(12), 2, budget=2000)
    path = write(tmp_path, "k39.txt", emit_edge_list(k39))
    assert main(["solve", "--problem", "src", "--k", "2", "--budget", "2000", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: exceeded budget of 2000 path-table entries and search nodes\n"


def test_geodesics_stop_at_the_limit():
    q4 = new_graph(16, [(v, v ^ (1 << b)) for v in range(16) for b in range(4)])
    every = geodesics(q4, 0, 15)
    assert len(every) == 24 and all(p.edge_count == 4 for p in every)
    assert geodesics(q4, 0, 15, limit=0) == every[:1]
    assert geodesics(q4, 0, 15, limit=5) == every[:6]
    assert geodesics(q4, 0, 15, limit=24) == every
    assert geodesics(q4, 0, 1, limit=0) == [Path((0, 1))]
    with pytest.raises(IndexOutOfRangeError):
        geodesics(q4, 0, -1)


def test_adjacent_pairs_need_no_path_table(tmp_path, capsys):
    # every pair of K12 is an edge, so any coloring is feasible: one node per edge
    k12 = new_graph(12, K12_EDGES)
    result = subset_rc_leq(k12, all_pairs(12), 10, budget=k12.edge_count)
    assert result.feasible and result.nodes_explored == k12.edge_count
    assert main(["solve", "--problem", "rc", "--k", "10", "--budget", "1000",
                 "--input", write(tmp_path, "k12.txt", emit_edge_list(k12))]) == 0
    assert capsys.readouterr().out.startswith("rc <= 10: feasible\n")


def test_searches_deeper_than_the_stack_allows_exit_2(tmp_path, capsys):
    k46 = new_graph(46, [(i, j) for i in range(46) for j in range(i)])
    assert main(["solve", "--problem", "rc", "--k", "1", "--input", write(tmp_path, "k46.txt", emit_edge_list(k46))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: search over 1035 edges exceeds the depth limit of 900 edges\n"


@pytest.mark.parametrize("k", [None, "901"])
def test_depth_limit_comes_before_the_set_up(tmp_path, capsys, monkeypatch, k):
    def refuse(*args):
        raise AssertionError("set-up ran before the depth check")

    monkeypatch.setattr(search, "diameter", refuse)
    monkeypatch.setattr(search, "all_pairs", refuse)
    monkeypatch.setattr(cli, "all_pairs", refuse)
    path = write(tmp_path, "p902.txt", emit_edge_list(new_graph(902, [(i, i + 1) for i in range(901)])))
    argv = ["solve", "--problem", "rc", "--input", path] + (["--k", k] if k else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: search over 901 edges exceeds the depth limit of 900 edges\n"


@pytest.mark.parametrize(
    "argv",
    [["reduce", "--reduction", "star", "--budget", "5"], ["solve", "--problem", "rc", "--seed", "1"],
     ["reduce", "--reduction", "star", "--seed", "1"], ["verify", "--budget", "5"]],
)
def test_options_belong_to_their_one_reader(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

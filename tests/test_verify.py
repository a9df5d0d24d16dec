import json

import pytest

from rainbowcon import (
    BudgetExceededError,
    CounterRng,
    FuzzConfig,
    Gadget,
    ReducedInstance,
    StarInstance,
    SubsetInstance,
    build_gadget,
    build_order2_gadget,
    check_nonpair_distances,
    check_pair_distances,
    check_path_containment,
    check_rc_equivalence,
    check_src_equivalence,
    check_vertex_coloring_equivalence,
    check_witness,
    distances_from,
    edge_coloring,
    fuzz,
    is_subset_rainbow_connected,
    make_pairs,
    new_graph,
    rc_reduction,
    run_battery,
    star_reduction,
    witness_coloring,
)
from rainbowcon import verify as verify_module
from rainbowcon.graph import Path, check_path
from rainbowcon.verify import random_instance

from oracles import all_graphs

K3 = new_graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C5 = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_counter_rng_is_deterministic_and_split():
    a = [CounterRng(7, 3).next_u64() for _ in range(5)]
    b = [CounterRng(7, 3).next_u64() for _ in range(5)]
    assert a == b
    assert CounterRng(7, 3).next_u64() != CounterRng(7, 4).next_u64()
    assert CounterRng(7, 3).next_u64() != CounterRng(8, 3).next_u64()
    rng = CounterRng(0, 0)
    assert all(0 <= rng.below(10) < 10 for _ in range(100))


def test_pair_distance_check_passes_on_healthy_gadgets():
    g2 = build_order2_gadget(3, make_pairs([(0, 1)], 3))
    report = check_pair_distances(g2)
    assert report.passed and report.counterexample is None
    assert report.instance["strict_threshold"] == 3
    assert report.instance["loose_threshold"] == 2
    assert report.instance["min_pair_distance"] == 3
    g3 = build_gadget(2, make_pairs([(0, 1)], 2), 3)
    assert check_pair_distances(g3).passed


def test_pair_distance_check_catches_planted_shortcut():
    g = build_order2_gadget(3, make_pairs([(0, 1)], 3))
    sabotaged = new_graph(g.graph.vertex_count, list(g.graph.edges) + [(0, 1)])
    bad = Gadget(sabotaged, 2, g.base_vertices, g.pairs, g.roles)
    report = check_pair_distances(bad)
    assert not report.passed
    ce = report.counterexample
    assert ce["pair"] == [0, 1] and ce["distance"] == 1
    # the counterexample replays: the path is real and too short
    check_path(sabotaged, Path(tuple(ce["path"])))
    assert len(ce["path"]) - 1 < bad.order + 1


def test_nonpair_distance_check_and_planted_fault():
    g = build_order2_gadget(3, make_pairs([(0, 1)], 3))
    assert check_nonpair_distances(g).passed
    # remove the bridge serving non-pair (0, 2): its distance grows past 2
    bridge = next(v for v, role in g.roles.items() if role[:1] == ("bridge",) and role[1:] == (0, 2))
    pruned_edges = [e for e in g.graph.edges if bridge not in e]
    bad = Gadget(new_graph(g.graph.vertex_count, pruned_edges), 2, g.base_vertices, g.pairs, g.roles)
    report = check_nonpair_distances(bad)
    assert not report.passed
    assert report.counterexample["pair"] == [0, 2]
    assert distances_from(bad.graph, 0)[2] == report.counterexample["distance"]


def test_witness_check_and_recolored_fault():
    g = build_order2_gadget(3, make_pairs([(0, 1)], 3))
    assert check_witness(g).passed
    witness = witness_coloring(g)
    # recolor one anchor edge so a base vertex loses its rainbow exit
    anchor0 = next(v for v, role in g.roles.items() if role == ("anchor", 0))
    edge_index = g.graph.edge_list().index((0, anchor0))
    tampered = list(witness.colors)
    tampered[edge_index] = 0  # now every edge at base 0 shows color 0
    report = check_witness(g, coloring=edge_coloring(g.graph, 2, tuple(tampered)))
    assert not report.passed
    assert report.counterexample["pair"][0] == 0
    over_budget = check_witness(g, coloring=edge_coloring(g.graph, 5, witness.colors))
    assert not over_budget.passed


def test_containment_check_and_planted_chord():
    star = star_reduction(K4, 3)
    inst = SubsetInstance(star.graph, star.pairs, 3)
    r = rc_reduction(inst)
    assert check_path_containment(r).passed
    # chord from a base vertex into the gadget interior creates a short mixed path
    interior = r.gadget.base_count + 1
    chord = new_graph(r.graph.vertex_count, list(r.graph.edges) + [(0, interior)])
    bad = ReducedInstance(chord, r.gadget, inst)
    report = check_path_containment(bad)
    assert not report.passed
    path = Path(tuple(report.counterexample["path"]))
    check_path(chord, path)
    assert any(e not in r.source.graph.edges for e in path.edges())
    assert path.edge_count <= inst.k


def test_vertex_coloring_equivalence_examples():
    assert check_vertex_coloring_equivalence(K3, 3).passed
    assert check_vertex_coloring_equivalence(K4, 3).passed
    assert check_vertex_coloring_equivalence(C5, 2).passed


def test_src_equivalence_feasible_and_infeasible_sides():
    feasible = check_src_equivalence(star_reduction(K3, 3))
    assert feasible.passed and feasible.instance["feasible"]
    infeasible = check_src_equivalence(star_reduction(K4, 3))
    assert infeasible.passed and not infeasible.instance["feasible"]
    flagged = check_src_equivalence(star_reduction(K3, 2))
    assert flagged.instance["too_few_colors"]


def test_rc_equivalence_checks():
    micro = SubsetInstance(new_graph(2, [(0, 1)]), make_pairs([(0, 1)], 2), 2)
    report = check_rc_equivalence(micro, full_bruteforce=True)
    assert report.passed and report.instance["feasible"]

    star3 = star_reduction(K3, 3)
    forward = check_rc_equivalence(SubsetInstance(star3.graph, star3.pairs, 3))
    assert forward.passed and forward.instance["feasible"]

    star4 = star_reduction(K4, 3)
    backward = check_rc_equivalence(SubsetInstance(star4.graph, star4.pairs, 3))
    assert backward.passed and not backward.instance["feasible"]


def test_rc_equivalence_bruteforce_budget():
    star3 = star_reduction(K3, 3)
    inst = SubsetInstance(star3.graph, star3.pairs, 3)
    with pytest.raises(BudgetExceededError):
        check_rc_equivalence(inst, full_bruteforce=True, bruteforce_budget=10)


def test_raw_exhaustion_beyond_the_cap_raises_before_the_first_coloring(monkeypatch):
    def refuse(*args):
        raise AssertionError("a coloring was tried")

    star = new_graph(14, [(i, 13) for i in range(13)])  # 3^13 = 1,594,323 colorings of the star edges
    pairs = make_pairs(K4.edges, 14)
    monkeypatch.setattr(verify_module, "is_subset_rainbow_connected", refuse)
    monkeypatch.setattr(verify_module, "is_subset_strong_rainbow_connected", refuse)
    with pytest.raises(BudgetExceededError, match="exceeds the cap of 1,000,000"):
        check_rc_equivalence(SubsetInstance(star, pairs, 3))
    with pytest.raises(BudgetExceededError, match="exceeds the cap of 1,000,000"):
        check_src_equivalence(StarInstance(star, 13, pairs, 3))


def test_backward_certificate_matches_raw_exhaustion():
    # independent replay of the negative certificate for the 4-clique chain
    import itertools

    star4 = star_reduction(K4, 3)
    m = star4.graph.edge_count
    assert m == 4
    for colors in itertools.product(range(3), repeat=m):
        c = edge_coloring(star4.graph, 3, colors)
        assert not is_subset_rainbow_connected(c, star4.pairs)


def test_fuzz_reports_all_pass_and_replay():
    config = FuzzConfig(seeds=25)
    reports = fuzz(config, seed=11)
    assert len(reports) == 100
    assert all(r.passed for r in reports)
    again = fuzz(config, seed=11)
    assert [r.json_line() for r in reports] == [r.json_line() for r in again]
    assert fuzz(FuzzConfig(seeds=0), seed=11) == []


def test_fuzz_json_lines_hide_timing():
    report = fuzz(FuzzConfig(seeds=1), seed=0)[0]
    payload = json.loads(report.json_line())
    assert set(payload) == {"check", "instance", "passed", "counterexample"}


def test_battery_small_run_passes():
    reports = run_battery(n_max=3, seeds=5, seed=1)
    assert reports and all(r.passed for r in reports)
    names = {r.check_name for r in reports}
    assert {
        "vc-equivalence",
        "pair-distances",
        "nonpair-distances",
        "witness",
        "containment",
        "rc-equivalence",
        "src-equivalence",
    } <= names


def test_battery_checks_each_distinct_gadget_once_per_call(monkeypatch):
    calls = []

    def counting(g, *args, **kwargs):
        calls.append((g.base_count, g.pairs, g.order))
        return check_witness(g, *args, **kwargs)

    monkeypatch.setattr(verify_module, "check_witness", counting)
    config = FuzzConfig(seeds=40)
    keys = {(n, make_pairs(g.edges, n), k) for n in (2, 3) for g in all_graphs(n) for k in (2, 3, 4, 5)}
    fuzz_keys = set()
    for index in range(config.seeds):
        inst = random_instance(config, 5, index)
        fuzz_keys.add((inst.graph.vertex_count, inst.pairs, inst.k))
    assert fuzz_keys - keys and fuzz_keys & keys  # the stream both repeats sweep gadgets and adds new ones
    keys |= fuzz_keys
    first = run_battery(n_max=3, seeds=40, seed=5)
    assert len(calls) == len(set(calls)) == len(keys)
    assert set(calls) == keys
    calls.clear()
    second = run_battery(n_max=3, seeds=40, seed=5)
    assert len(calls) == len(keys)  # the memo lives and dies with one battery
    assert [r.json_line() for r in first] == [r.json_line() for r in second]


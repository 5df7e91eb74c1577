"""Acceptance criteria: every check runs at its stated exact tolerance and
prints one pass/fail line per criterion."""

import random

from powergraphs.connectivity import (
    all_minimum_cutsets,
    min_vertex_cut_between,
    vertex_connectivity,
)
from powergraphs.cyclic import (
    elements_of_exact_order,
    gamma_set,
    min_order_maximal_cyclic,
    sylow_complement_product,
)
from powergraphs.groups import (
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_generalized_quaternion,
)
from powergraphs.harness import corpus_groups, run_property_suite
from powergraphs.numtheory import euler_phi, factorize, primes_upto, solve_congruence
from powergraphs.powergraph import build_power_graph
from powergraphs.predictions import gamma_cardinality, kappa_cyclic


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {description}"
    if detail and not ok:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def brute_cyclic_kappa(n: int) -> int:
    return vertex_connectivity(build_power_graph(make_cyclic(n)))


def test_criterion_01_two_prime_cyclic_formula():
    bad = []
    for n in range(2, 121):
        if len(factorize(n)) != 2:
            continue
        predicted = kappa_cyclic(n).kappa
        observed = brute_cyclic_kappa(n)
        if predicted != observed:
            bad.append((n, predicted, observed))
    _report(1, "two-prime cyclic connectivity formula, n <= 120", not bad, str(bad))


def test_criterion_02_three_prime_cyclic_formula():
    expected = {30: 12, 60: 24, 90: 36, 105: 55}
    bad = []
    for n, want in expected.items():
        predicted = kappa_cyclic(n).kappa
        observed = brute_cyclic_kappa(n)
        if not (predicted == observed == want):
            bad.append((n, predicted, observed, want))
    _report(2, "three-prime cyclic connectivity at 30/60/90/105", not bad, str(bad))


def test_criterion_03_minimum_cutset_counts():
    bad = []
    for n, want in ((12, 1), (18, 2), (15, 1)):
        G = make_cyclic(n)
        graph = build_power_graph(G)
        kappa, sets = all_minimum_cutsets(graph)
        if kappa != vertex_connectivity(graph) or len(sets) != want:
            bad.append((n, kappa, len(sets), want))
    _report(3, "minimum cut-set counts for C12/C18/C15", not bad, str(bad))


def test_criterion_04_order_12_example_reproduction():
    G = make_abelian([(2, 1), (2, 1), (3, 1)])
    graph = build_power_graph(G)
    kappa, found = all_minimum_cutsets(graph)
    sets = set(found)
    x = G.encode((0, 0, 1))
    expected = {G.cyclic_subgroup(x).elements}
    for involution in (G.encode((1, 0, 0)), G.encode((0, 1, 0)), G.encode((1, 1, 0))):
        expected.add(frozenset({0} | G.generator_class(G.mul(involution, x))))
    ok = kappa == vertex_connectivity(graph) == 3 and sets == expected
    _report(4, "order-12 worked example: kappa 3 and its four cut-sets", ok,
            f"kappa={kappa}, sets={sorted(map(sorted, sets))}")


def test_criterion_05_exceptional_families():
    problems = []
    for order in (8, 16):
        Q = make_generalized_quaternion(order)
        graph = build_power_graph(Q)
        involution = next(g for g, o in enumerate(Q.element_orders) if o == 2)
        if vertex_connectivity(graph) != 2:
            problems.append(f"Q{order} kappa")
        if not graph.is_cut_set({0, involution}):
            problems.append(f"Q{order} involution cut")
    for n in range(3, 11):
        if vertex_connectivity(build_power_graph(make_dihedral(2 * n))) != 1:
            problems.append(f"D{2 * n} kappa")
    two_groups = [
        g for g in corpus_groups(32) if 3 <= g.size <= 32 and g.size & (g.size - 1) == 0
    ]
    assert len(two_groups) >= 15
    for G in two_groups:
        orders = G.element_orders
        quaternion = not G.is_cyclic and sum(1 for o in orders if o == 2) == 1
        expected = G.is_cyclic or quaternion
        connected = len(build_power_graph(G).components_after_removal({0})) == 1
        if connected != expected:
            problems.append(f"{G.name} proper-graph")
    _report(5, "dicyclic/dihedral connectivity and p-group proper graphs",
            not problems, ", ".join(problems))


def test_criterion_06_nilpotent_unique_cutset_instance():
    G = make_abelian([(3, 1), (3, 1), (5, 1)])
    graph = build_power_graph(G)
    kappa, sets = all_minimum_cutsets(graph)
    ok = kappa == vertex_connectivity(graph) == 5 and sets == [sylow_complement_product(G, 3)]
    _report(6, "(C3xC3)xC5: kappa 5 with the 5-Sylow subgroup as unique cut-set",
            ok, f"kappa={kappa}, sets={sorted(map(sorted, sets))}")


def test_criterion_07_two_prime_abelian_instances():
    k225 = vertex_connectivity(build_power_graph(make_abelian([(3, 1), (3, 1), (5, 1), (5, 1)])))
    k36 = vertex_connectivity(build_power_graph(make_abelian([(2, 1), (2, 1), (3, 1), (3, 1)])))
    ok = k225 == 7 and k36 == 4
    _report(7, "two-prime abelian instances at 225 and 36 vertices",
            ok, f"kappa(225)={k225}, kappa(36)={k36}")


def test_criterion_08_three_prime_abelian_instances():
    k60 = vertex_connectivity(build_power_graph(make_abelian([(2, 1), (2, 1), (3, 1), (5, 1)])))
    k240 = vertex_connectivity(build_power_graph(make_abelian([(2, 2), (2, 2), (3, 1), (5, 1)])))
    G90 = make_abelian([(2, 1), (3, 1), (3, 1), (5, 1)])
    graph90 = build_power_graph(G90)
    k90, sets90 = all_minimum_cutsets(graph90)
    unique_ok = sets90 == [frozenset(sylow_complement_product(G90, 3))]
    ok = k60 == 12 and k240 == 15 and k90 == vertex_connectivity(graph90) == 10 and unique_ok
    _report(8, "three-prime abelian instances at 60/240/90 vertices", ok,
            f"k60={k60}, k240={k240}, k90={k90}, unique={unique_ok}")


def test_criterion_09_layered_cutset_construction():
    problems = []
    for spec, params in (
        ([(2, 1), (2, 1), (3, 1), (5, 1)], (1, 3, 1, 5, 1)),
        ([(2, 2), (2, 2), (3, 1), (5, 1)], (2, 3, 1, 5, 1)),
    ):
        G = make_abelian(spec)
        M = min_order_maximal_cyclic(G)
        gamma = gamma_set(G, M)
        if len(gamma) != gamma_cardinality(*params):
            problems.append(f"{G.name}: size")
        graph = build_power_graph(G)
        if not graph.is_minimal_cut_set(gamma):
            problems.append(f"{G.name}: not minimal")
        m, p2, n2, _, _ = params
        shell = elements_of_exact_order(G, M, 2**m * p2**n2)
        comps = graph.components_after_removal(gamma)
        rest = frozenset(range(G.size)) - gamma - shell
        if not (len(comps) == 2 and set(comps) == {shell, rest}):
            problems.append(f"{G.name}: components")
    _report(9, "layered cut-set: size formula, minimality, two components",
            not problems, ", ".join(problems))


def test_criterion_10_property_suites_full_corpus():
    corpus = corpus_groups(60)
    failures = []
    for suite_id in (
        "mtilde-cutset",
        "mbar-cutset",
        "mbar-eq-mtilde",
        "mtilde-minimal",
        "size-compare",
        "class-union",
    ):
        summary = run_property_suite(suite_id, corpus)
        failure = summary.first_failure()
        if failure is not None:
            failures.append(f"{suite_id}: {failure.group_label}: {failure.detail}")

    # Menger consistency on at least 1000 sampled non-adjacent pairs
    rng = random.Random(0xACCE97)
    pairs_checked = 0
    for G in corpus:
        if pairs_checked >= 1000:
            break
        graph = build_power_graph(G)
        if graph.is_complete:
            continue
        n = graph.vertex_count
        non_adjacent = [
            (s, t) for s in range(n) for t in range(s + 1, n) if not graph.adjacent(s, t)
        ]
        for s, t in rng.sample(non_adjacent, min(20, len(non_adjacent))):
            cut, paths = min_vertex_cut_between(graph, s, t)
            if len(paths) != len(cut):
                failures.append(f"menger {G.name} ({s},{t})")
            comps = graph.components_after_removal(cut)
            side_s = next(c for c in comps if s in c)
            if t in side_s:
                failures.append(f"menger separation {G.name} ({s},{t})")
            pairs_checked += 1
    if pairs_checked < 1000:
        failures.append(f"only {pairs_checked} pairs sampled")
    _report(10, "property suites over the order-60 corpus + Menger consistency",
            not failures, "; ".join(failures[:5]))


def test_criterion_11_number_theory_units():
    problems = []
    limit = 10**6
    primes = primes_upto(limit)
    equality_products = []
    stack = [(0, 1, 1, 0)]
    tuples_checked = 0
    while stack:
        idx, prod_val, phi_val, t = stack.pop()
        for i in range(idx, len(primes)):
            q = primes[i]
            nxt = prod_val * q
            if nxt > limit:
                break
            nphi, nt = phi_val * (q - 1), t + 1
            tuples_checked += 1
            lhs = (nt + 1) * nphi
            if lhs < nxt:
                problems.append(f"inequality fails at product {nxt}")
            elif lhs == nxt:
                equality_products.append(nxt)
            stack.append((i + 1, nxt, nphi, nt))
    if sorted(equality_products) != [2, 6]:
        problems.append(f"equality cases {sorted(equality_products)}")
    if tuples_checked < 600_000:
        problems.append(f"only {tuples_checked} tuples enumerated")

    rng = random.Random(0x5EED5)
    small_primes = [2, 3, 5, 7, 11, 13]
    for _ in range(10_000):
        p = rng.choice(small_primes)
        q = rng.choice([x for x in small_primes if x != p])
        r = rng.randint(1, 3)
        q_pow = q**r
        m = rng.randint(0, 10_000)
        got = solve_congruence(p, m, q_pow)
        scan = next(l for l in range(q_pow) if (p * l) % q_pow == m % q_pow)
        if got != scan:
            problems.append(f"congruence ({p},{m},{q_pow}): {got} != {scan}")
            break
    _report(11, "totient inequality sweep and congruence solver scan",
            not problems, "; ".join(problems[:3]))


def test_phi_plus_one_bound_cyclic_orders():
    # companion check: the cyclic lower bound with its equality criterion
    for n in range(2, 121):
        f = factorize(n)
        if len(f) == 1:
            continue  # complete graph, no cut-sets
        kappa = brute_cyclic_kappa(n)
        bound = euler_phi(n) + 1
        assert kappa >= bound
        two_distinct_primes = len(f) == 2 and f[0][1] == f[1][1] == 1
        assert (kappa == bound) == two_distinct_primes

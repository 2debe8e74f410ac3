"""Graph, steering and neighbor-query tests.

nearest() and near() are compared against brute-force linear scans with
math.dist, which is the definition they claim to match.
"""

import io
import math

import numpy as np
import pytest

from rrtsharp.nngraph import (
    NO_PARENT,
    Graph,
    dump_graph,
    parse_graph_dump,
    steer,
)


def brute_nearest(points, x):
    best, best_d = 0, math.dist(points[0], x)
    for vid in range(1, len(points)):
        d = math.dist(points[vid], x)
        if d < best_d:
            best, best_d = vid, d
    return best


def brute_near(points, x, r):
    return [
        vid for vid, p in enumerate(points) if 0.0 < math.dist(p, x) < r
    ]


# World offsets for the linear-scan comparisons: far from the origin,
# |x|^2 - 2x.q + |q|^2 on absolute coordinates cancels catastrophically.
OFFSETS = (0.0, 1e5, 1e7)


def filled_graph(dim, n, seed, gamma=1.5, eta=0.4, offset=0.0):
    rng = np.random.default_rng(seed)
    g = Graph(dim, gamma=gamma, eta=eta)
    points = [tuple(offset + rng.uniform(0, 1, dim)) for _ in range(n)]
    for p in points:
        g.insert_vertex(p)
    return g, points


# ---------------------------------------------------------------- steer


def test_steer_within_radius_is_identity():
    assert steer((0.0, 0.0), (0.1, 0.2), eta=0.5) == (0.1, 0.2)


def test_steer_pulls_back_to_eta():
    out = steer((0.0, 0.0), (3.0, 4.0), eta=1.0)
    assert math.dist((0.0, 0.0), out) == pytest.approx(1.0, abs=1e-15)
    assert out == pytest.approx((0.6, 0.8), abs=1e-15)


def test_steer_direction_preserved_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = tuple(rng.uniform(-1, 1, 3))
        b = tuple(rng.uniform(-1, 1, 3))
        eta = float(rng.uniform(0.05, 2.0))
        out = steer(a, b, eta)
        d_ab = math.dist(a, b)
        if d_ab <= eta:
            assert out == b
        else:
            assert math.dist(a, out) == pytest.approx(eta, rel=1e-12)
            # Collinear: cross-ratio of the coordinate deltas agrees.
            t = eta / d_ab
            want = tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))
            assert out == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- graph


def test_insert_vertex_defaults():
    g = Graph(2, gamma=1.0, eta=0.3)
    vid = g.insert_vertex((0.25, 0.75))
    assert vid == 0
    assert g.positions[vid] == (0.25, 0.75)
    assert math.isinf(g.g[vid]) and math.isinf(g.lmc[vid])
    assert g.parent[vid] == NO_PARENT
    assert list(g.neighbors[vid]) == [] and list(g.costs[vid]) == []
    assert len(g) == 1
    with pytest.raises(ValueError):
        g.insert_vertex((0.1, 0.2, 0.3))


def test_add_edge_symmetric_adjacency():
    g = Graph(2, gamma=1.0, eta=0.3)
    a = g.insert_vertex((0.0, 0.0))
    b = g.insert_vertex((0.1, 0.0))
    c = g.insert_vertex((0.2, 0.0))
    g.add_edge(a, b, 0.1)
    g.add_edge(b, c, 0.25)
    assert list(g.neighbors[a]) == [b]
    assert list(g.neighbors[b]) == [a, c]
    assert list(g.neighbors[c]) == [b]
    assert list(g.costs[a]) == [0.1]
    assert list(g.costs[b]) == [0.1, 0.25]
    assert list(g.costs[c]) == [0.25]
    assert g.edge_count == 2
    assert list(g.undirected_edges()) == [(0, 1), (1, 2)]


def test_buffer_growth_keeps_queries_exact():
    g, points = filled_graph(2, 3000, seed=1)
    rng = np.random.default_rng(2)
    x = tuple(rng.uniform(0, 1, 2))
    assert g.nearest(x) == brute_nearest(points, x)


# -------------------------------------------------------------- nearest


@pytest.mark.parametrize("offset", OFFSETS)
def test_nearest_matches_linear_scan(offset):
    for dim in (2, 3, 5):
        g, points = filled_graph(dim, 400, seed=dim, offset=offset)
        rng = np.random.default_rng(100 + dim)
        for _ in range(50):
            x = tuple(offset + rng.uniform(0, 1, dim))
            assert g.nearest(x) == brute_nearest(points, x)


def test_nearest_exact_tie_picks_lowest_id():
    g = Graph(2, gamma=1.0, eta=0.5)
    g.insert_vertex((1.0, 0.0))
    g.insert_vertex((0.0, 1.0))  # same distance from origin as vertex 0
    g.insert_vertex((2.0, 2.0))
    assert g.nearest((0.0, 0.0)) == 0


def test_nearest_on_empty_graph_raises():
    g = Graph(2, gamma=1.0, eta=0.5)
    with pytest.raises(ValueError):
        g.nearest((0.0, 0.0))


# --------------------------------------------------------------- radius


def test_radius_zero_for_tiny_graphs():
    g = Graph(2, gamma=1.0, eta=0.5)
    assert g.radius(0) == 0.0
    assert g.radius(1) == 0.0
    assert g.radius(2) > 0.0


def test_radius_formula_and_cap():
    g = Graph(2, gamma=1.0, eta=0.5)
    n = 100
    expect = min(1.0 * (math.log(n) / n) ** 0.5, 0.5)
    assert g.radius(n) == pytest.approx(expect, rel=1e-15)
    # Small n: the eta cap binds.
    assert g.radius(2) == 0.5
    # Huge gamma keeps the cap binding everywhere.
    g2 = Graph(2, gamma=1e6, eta=0.25)
    assert g2.radius(10**6) == 0.25


def test_radius_monotone_decreasing_from_three():
    g = Graph(3, gamma=2.0, eta=10.0)  # big eta so the formula is visible
    values = [g.radius(n) for n in range(3, 5000)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


# ----------------------------------------------------------------- near


@pytest.mark.parametrize("offset", OFFSETS)
def test_near_matches_linear_scan(offset):
    for dim in (2, 5):
        g, points = filled_graph(
            dim, 600, seed=10 + dim, gamma=2.0, eta=0.8, offset=offset
        )
        rng = np.random.default_rng(20 + dim)
        for _ in range(50):
            x = tuple(offset + rng.uniform(0, 1, dim))
            n = len(points)
            assert g.near(x, n) == brute_near(points, x, g.radius(n))


def test_near_excludes_exact_matches_and_boundary():
    g = Graph(2, gamma=10.0, eta=1.0)
    g.insert_vertex((0.0, 0.0))
    g.insert_vertex((0.5, 0.0))
    g.insert_vertex((2.0, 2.0))
    r = g.radius(3)
    assert r == 1.0  # capped by eta
    # Exact coincidence excluded; boundary excluded (open ball).
    g2 = Graph(2, gamma=10.0, eta=1.0)
    g2.insert_vertex((0.0, 0.0))
    g2.insert_vertex((1.0, 0.0))  # exactly at distance r
    g2.insert_vertex((0.3, 0.0))
    assert g2.near((0.0, 0.0), 3) == [2]


def test_near_uses_given_count_for_radius():
    g = Graph(2, gamma=1.2, eta=5.0)
    for k in range(50):
        g.insert_vertex((k * 0.01, 0.0))
    # Larger n -> smaller radius -> no more hits than with smaller n.
    wide = g.near((0.25, 0.0), 10)
    narrow = g.near((0.25, 0.0), 50)
    assert set(narrow) <= set(wide)
    assert g.near((0.25, 0.0), 0) == []


# ----------------------------------------------------------------- dump


def test_dump_roundtrip_exact():
    g, _ = filled_graph(2, 40, seed=5)
    g.lmc[0] = 0.0
    g.g[0] = 0.0
    g.g[3] = 1.234567890123456789
    g.lmc[3] = 1.2
    g.parent[3] = 0
    g.add_edge(0, 3, 0.5)
    g.add_edge(3, 7, 0.25)

    buf = io.StringIO()
    dump_graph(g, buf, lambda vid: "cat%d" % (vid % 3))
    parsed = parse_graph_dump(buf.getvalue().splitlines())

    assert len(parsed.vertices) == 40
    assert parsed.edges == [(0, 3), (3, 7)]
    v3 = parsed.vertices[3]
    assert v3["id"] == 3
    assert v3["position"] == g.positions[3]  # repr round-trips bit-exactly
    assert v3["g"] == g.g[3]
    assert v3["lmc"] == g.lmc[3]
    assert v3["parent"] == 0
    assert v3["category"] == "cat0"
    v1 = parsed.vertices[1]
    assert math.isinf(v1["g"]) and math.isinf(v1["lmc"])
    assert v1["parent"] == NO_PARENT


def test_dump_roundtrip_5d():
    g, _ = filled_graph(5, 10, seed=6)
    buf = io.StringIO()
    dump_graph(g, buf, lambda vid: "x")
    parsed = parse_graph_dump(buf.getvalue().splitlines())
    assert all(len(v["position"]) == 5 for v in parsed.vertices)
    assert [v["position"] for v in parsed.vertices] == g.positions


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError):
        parse_graph_dump(["1, 2, 3"])

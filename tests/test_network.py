import collections
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acdcdyn.lti import NumericFailure, PoleHit, RationalTF
from acdcdyn.network import (AcEdge, DcEdge, EdgePole, HybridGraph, NodeKind,
                             SingularLL,
                             ac_edge_tf, ac_laplacian_tfs,
                             assemble_ac_laplacian, assemble_dc_laplacian,
                             check_assumption1, dc_edge_tf,
                             dc_laplacian_tfs,
                             kron_reduce, kron_reduce_sequential,
                             kron_reduce_symbolic, line_impedance,
                             load_cable_catalog)
from acdcdyn.system import build
from conftest import preset

W0 = 2 * math.pi * 50.0


def chain_graph(r2=0.0217, uniform_rho=False, r1=5.0e-4):
    l1, l2 = 1.02e-6, 6.6e-6
    if uniform_rho:
        r2 = r1 * l2 / l1
    return HybridGraph(
        ac_nodes=(("sm", NodeKind.SM), ("vsc", NodeKind.VSC),
                  ("load", NodeKind.LOAD_AC)),
        ac_edges=(AcEdge("sm", "load", l1, r1),
                  AcEdge("load", "vsc", l2, r2, l_virt_k=0.0023)),
        dc_edges=(), V_ac_star=400.0, omega_star=W0,
        v_dc_star={"vsc": 650.0})


def dc_pair_graph():
    """Two VSCs tied by an AC line and a DC link at unequal setpoints."""
    return HybridGraph(
        ac_nodes=(("v1", NodeKind.VSC), ("v2", NodeKind.VSC)),
        ac_edges=(AcEdge("v1", "v2", 1e-5, 1e-3, l_virt_n=1e-4),),
        dc_edges=(DcEdge("v1", "v2", 2.6e-5, 0.27),),
        V_ac_star=400.0, omega_star=W0,
        v_dc_star={"v1": 742.7, "v2": 740.0})


#: A Laplacian whose two load nodes (the last two) are tied only to each
#: other, and one whose last node is isolated.
FLOATING_LOADS = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, 1.0]])
ISOLATED_LOAD = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0]])


class TestEdges:
    def test_edge_ratio_terms(self):
        e = AcEdge("a", "b", 1e-5, 1e-3, l_virt_k=2e-5, r_virt_k=1e-3)
        assert e.k_nk == pytest.approx(3.0)
        assert e.rho == pytest.approx(2e-3 / 1e-5)

    def test_ac_edge_tf_dc_value(self):
        e = AcEdge("a", "b", 1e-5, 1e-3)
        g = ac_edge_tf(e, 400.0, W0)
        rho = e.rho
        expected = 400.0**2 * W0 / (1e-5 * (rho**2 + W0**2))
        assert g(0.0) == pytest.approx(expected)

    def test_dc_edge_antisymmetry_equal_setpoints(self):
        e = DcEdge("a", "b", 1e-5, 0.1)
        for s in (0.0, 1j, 10 + 5j):
            assert dc_edge_tf(e, 650.0)(s) == pytest.approx(
                dc_edge_tf(e, 650.0)(s))
        assert dc_edge_tf(e, 0.0).num.is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            AcEdge("a", "b", 0.0, 0.1)
        with pytest.raises(ValueError):
            DcEdge("a", "b", 1e-5, -0.1)

    def test_self_loop_rejected(self):
        # an AC self-loop added poles, since the symbolic Laplacian does
        # not cancel w - w exactly, and a DC self-loop added states
        with pytest.raises(ValueError,
                           match="AC edge joins node 'a' to itself"):
            AcEdge("a", "a", 1e-5, 1e-3)
        with pytest.raises(ValueError,
                           match="DC edge joins node 'a' to itself"):
            DcEdge("a", "a", 1e-5, 0.1)


class TestGraph:
    def test_load_last_normalization(self):
        g = HybridGraph(
            ac_nodes=(("load", NodeKind.LOAD_AC), ("sm", NodeKind.SM)),
            ac_edges=(AcEdge("sm", "load", 1e-5, 1e-3),),
            dc_edges=(), V_ac_star=400.0, omega_star=W0)
        assert g.ac_names == ["sm", "load"]
        assert g.load_names == ["load"]

    def test_vsc_must_be_in_both_sets(self):
        # every VSC is a DC node too, so it needs a DC setpoint
        g = HybridGraph(
            ac_nodes=(("vsc", NodeKind.VSC), ("sm", NodeKind.SM)),
            ac_edges=(AcEdge("sm", "vsc", 1e-5, 1e-3),),
            dc_edges=(), V_ac_star=400.0, omega_star=W0,
            v_dc_star={"vsc": 740.0})
        assert g.dc_nodes == (("vsc", NodeKind.VSC),)
        assert g.dc_names == ["vsc"]
        with pytest.raises(ValueError, match="missing DC setpoint"):
            dataclasses.replace(g, v_dc_star={})

    def test_dc_nodes_must_be_vsc(self):
        # a DC node without a converter has no capacitor in the model, so
        # splitting a DC link through one would hold it at its setpoint
        for kind in NodeKind:
            if kind is NodeKind.VSC:
                continue
            with pytest.raises(ValueError,
                               match="DC edge references unknown node"):
                HybridGraph(
                    ac_nodes=(("sm", NodeKind.SM), ("vsc", NodeKind.VSC),
                              ("mid", kind)),
                    ac_edges=(AcEdge("sm", "vsc", 1e-5, 1e-3),
                              AcEdge("sm", "mid", 1e-5, 1e-3)),
                    dc_edges=(DcEdge("vsc", "mid", 1e-5, 0.1),),
                    V_ac_star=400.0, omega_star=W0,
                    v_dc_star={"vsc": 740.0, "mid": 740.0})

    def test_virtual_terms_only_at_vsc(self):
        with pytest.raises(ValueError):
            HybridGraph(
                ac_nodes=(("a", NodeKind.SM), ("b", NodeKind.SM)),
                ac_edges=(AcEdge("a", "b", 1e-5, 1e-3, l_virt_n=1e-4),),
                dc_edges=(), V_ac_star=400.0, omega_star=W0)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            HybridGraph(
                ac_nodes=(("a", NodeKind.SM), ("b", NodeKind.SM)),
                ac_edges=(), dc_edges=(),
                V_ac_star=400.0, omega_star=W0)

    @pytest.mark.parametrize("kind", [NodeKind.LOAD_AC, NodeKind.SM])
    def test_repeated_node_name_rejected(self, kind):
        # a load listed twice gave a load block with an empty row, which
        # surfaced only in build, as a zero pivot
        with pytest.raises(ValueError, match="AC node 'ld' is listed twice"):
            HybridGraph(
                ac_nodes=(("sm", NodeKind.SM), ("ld", NodeKind.LOAD_AC),
                          ("ld", kind)),
                ac_edges=(AcEdge("sm", "ld", 1e-5, 1e-3),),
                dc_edges=(), V_ac_star=400.0, omega_star=W0)

    def test_lossless_dc_edge_needs_equal_setpoints(self):
        g = dc_pair_graph()
        lossless = (DcEdge("v1", "v2", 2.6e-5, 0.0),)
        with pytest.raises(ValueError, match="lossless DC edge v1-v2 between "
                           "unequal setpoints has no operating point"):
            dataclasses.replace(g, dc_edges=lossless)
        g = dataclasses.replace(g, dc_edges=lossless,
                                v_dc_star={"v1": 740.0, "v2": 740.0})
        assert g.dc_edges == lossless

    def test_incidence_shape(self):
        g = chain_graph()
        B = g.incidence_ac()
        assert B.shape == (3, 2)
        assert np.allclose(B.sum(axis=0), 0.0)


class TestLaplacian:
    @given(st.floats(min_value=0.1, max_value=1e4))
    @settings(max_examples=30, deadline=None)
    def test_row_sums_vanish(self, w):
        g = chain_graph()
        L = assemble_ac_laplacian(g, 1j * w)
        assert np.max(np.abs(L.sum(axis=1))) < 1e-6 * np.max(np.abs(L))

    def test_rational_row_sums_vanish(self):
        g = chain_graph()
        L = ac_laplacian_tfs(g)
        s = 0.3 + 2.0j
        for row in L:
            total = sum(tf(s) for tf in row)
            scale = max(abs(tf(s)) for tf in row)
            assert abs(total) < 1e-9 * scale

    def test_orientation_invariance(self):
        g1 = chain_graph()
        g2 = HybridGraph(
            ac_nodes=g1.ac_nodes,
            ac_edges=tuple(
                AcEdge(e.k, e.n, e.l, e.r, l_virt_n=e.l_virt_k,
                       l_virt_k=e.l_virt_n, r_virt_n=e.r_virt_k,
                       r_virt_k=e.r_virt_n)
                for e in g1.ac_edges),
            dc_edges=(), V_ac_star=400.0, omega_star=W0,
            v_dc_star=dict(g1.v_dc_star))
        s = 1j * 12.0
        L1 = assemble_ac_laplacian(g1, s)
        L2 = assemble_ac_laplacian(g2, s)
        assert np.allclose(L1, L2)

    def test_dc_laplacian_loss_vector(self):
        L, loss = assemble_dc_laplacian(dc_pair_graph(), 0.0)
        assert L[0, 0] == pytest.approx(742.7 / 0.27)
        assert loss[0] == pytest.approx(2.7 / 0.27)
        assert loss[1] == pytest.approx(-2.7 / 0.27)

    @pytest.mark.parametrize("graph", [
        dc_pair_graph, lambda: preset("lvdc_async").graph,
        lambda: preset("parallel_ac_dc").graph,
        lambda: preset("lvdc_async", {"v_dc_star_pu": [0.9975, 1.0]}).graph],
        ids=["dc-pair", "lvdc", "parallel", "lvdc-unequal"])
    def test_dc_laplacian_tfs_match_evaluated(self, graph):
        # the rational DC Laplacian and loss vector against the evaluated
        # ones, entry by entry; the loss injections sum to zero
        g = graph()
        L, loss = dc_laplacian_tfs(g)
        for s in (0.0, 0.5 + 3.0j, 40.0j, 2e3j):
            Ln, loss_n = assemble_dc_laplacian(g, s)
            scale = np.max(np.abs(Ln))
            assert np.max(np.abs([[tf(s) for tf in row] for row in L] - Ln)) \
                <= 1e-12 * scale
            assert np.max(np.abs([tf(s) for tf in loss] - loss_n)) \
                <= 1e-12 * scale
            assert abs(sum(tf(s) for tf in loss)) <= 1e-12 * scale
            assert abs(loss_n.sum()) <= 1e-12 * scale

    @pytest.mark.parametrize("edge", [0, 1])
    def test_ac_edge_pole_is_a_numeric_failure(self, edge):
        # s = -rho + j k w* is a root of the edge's denominator
        g = chain_graph()
        e = g.ac_edges[edge]
        with pytest.raises(NumericFailure) as info:
            assemble_ac_laplacian(g, complex(-e.rho, e.k_nk * W0))
        assert isinstance(info.value, EdgePole)
        assert f"({e.n},{e.k})" in str(info.value)

    def test_dc_edge_pole_is_a_numeric_failure(self):
        g = dc_pair_graph()
        e, = g.dc_edges
        with pytest.raises(NumericFailure) as info:
            assemble_dc_laplacian(g, -e.r_dc / e.l_dc)
        assert isinstance(info.value, EdgePole)

    @pytest.mark.parametrize("name", ["islanded_pv", "lvdc_async",
                                      "parallel_ac_dc"])
    def test_preset_edge_poles(self, name):
        # at each edge's pole, and 1e-13 (relative) off it, where den(s)
        # has cancelled to rounding: the edge's transfer function raises
        # PoleHit and the Laplacian EdgePole naming the edge
        g = preset(name).graph
        cases = [(ac_edge_tf(e, g.V_ac_star, g.omega_star), e,
                  complex(-e.rho, e.k_nk * g.omega_star),
                  assemble_ac_laplacian) for e in g.ac_edges]
        cases += [(dc_edge_tf(e, g.v_dc_star[e.n]), e, -e.r_dc / e.l_dc,
                   assemble_dc_laplacian) for e in g.dc_edges]
        for tf, e, pole, assemble in cases:
            for s in (pole, pole * (1.0 + 1e-13)):
                with pytest.raises(PoleHit):
                    tf(s)
                with pytest.raises(EdgePole,
                                   match=re.escape(f"({e.n},{e.k})")):
                    assemble(g, s)
            assert np.isfinite(tf(pole * (1.0 + 1e-9)))


class TestKron:
    @given(st.floats(min_value=0.05, max_value=5e3))
    @settings(max_examples=30, deadline=None)
    def test_joint_vs_sequential(self, w):
        g = chain_graph()
        L = assemble_ac_laplacian(g, 1j * w)
        Gc1, Gl1 = kron_reduce(L, 2)
        Gc2, Gl2 = kron_reduce_sequential(L, 2)
        scale = np.max(np.abs(Gc1))
        assert np.max(np.abs(Gc1 - Gc2)) < 1e-10 * scale
        assert np.max(np.abs(Gl1 - Gl2)) < 1e-10

    def test_symbolic_matches_numeric(self):
        g = chain_graph()
        L = ac_laplacian_tfs(g)
        Gc, Gl = kron_reduce_symbolic(L, 2)
        for w in (0.1, 3.0, 250.0):
            s = 1j * w
            Ln = assemble_ac_laplacian(g, s)
            Gcn, Gln = kron_reduce(Ln, 2)
            for i in range(2):
                for j in range(2):
                    assert Gc[i][j](s) == pytest.approx(Gcn[i, j], rel=1e-7)
                assert Gl[i][0](s) == pytest.approx(Gln[i, 0], rel=1e-7)

    def test_load_columns_sum_to_one_at_dc(self):
        g = chain_graph()
        L = assemble_ac_laplacian(g, 1e-9j)
        _, Gl = kron_reduce(L, 2)
        assert Gl.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_singular_load_block_is_a_numeric_failure(self):
        with pytest.raises(NumericFailure) as info:
            kron_reduce(FLOATING_LOADS, 2)
        assert isinstance(info.value, SingularLL)

    def test_zero_pivot_is_a_numeric_failure(self):
        symbolic = [[RationalTF.constant(x) for x in row]
                    for row in ISOLATED_LOAD]
        for reduce, L in ((kron_reduce_sequential, ISOLATED_LOAD),
                          (kron_reduce_symbolic, symbolic)):
            with pytest.raises(NumericFailure) as info:
                reduce(L, 2)
            assert isinstance(info.value, SingularLL)
            assert "zero pivot" in str(info.value)

    def test_no_loads_identity(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        Gc, Gl = kron_reduce(L, 2)
        assert np.allclose(Gc, L)
        assert Gl.shape == (2, 0)


def adjacent_loads_graph(r_load_load=8e-3):
    l1, l2, l3 = 1.0e-6, 5.0e-6, 2.0e-6
    return HybridGraph(
        ac_nodes=(("sm", NodeKind.SM), ("vsc", NodeKind.VSC),
                  ("ld1", NodeKind.LOAD_AC), ("ld2", NodeKind.LOAD_AC)),
        ac_edges=(AcEdge("sm", "ld1", l1, 1e-3),
                  AcEdge("ld1", "ld2", l2, r_load_load),
                  AcEdge("ld2", "vsc", l3, 1e-3, l_virt_k=1e-4)),
        dc_edges=(), V_ac_star=400.0, omega_star=W0,
        v_dc_star={"vsc": 650.0})


def radial_feeder(n_loads):
    """SG at the head of a chain of loads, a GFM VSC at every second load."""
    cat = load_cable_catalog()
    cables = ("NAYY 4x240", "NAYY 4x150", "NAYY 4x35")
    loads = [f"ld{i}" for i in range(1, n_loads + 1)]
    vscs = [f"vsc{i}" for i in range(1, n_loads + 1, 2)]
    edges, prev = [], "sm"
    for i, ld in enumerate(loads):
        r, l = line_impedance(cat, cables[i % 3], 20.0 + 15.0 * i)
        edges.append(AcEdge(prev, ld, l, r))
        prev = ld
    for i, v in enumerate(vscs):
        r, l = line_impedance(cat, "NAYY 4x35", 10.0 + 5.0 * i)
        edges.append(AcEdge(loads[2 * i], v, l, r, l_virt_k=0.0023))
    return HybridGraph(
        ac_nodes=(("sm", NodeKind.SM),)
        + tuple((v, NodeKind.VSC) for v in vscs)
        + tuple((ld, NodeKind.LOAD_AC) for ld in loads),
        ac_edges=tuple(edges), dc_edges=(), V_ac_star=400.0, omega_star=W0,
        v_dc_star={v: 740.0 for v in vscs})


#: The line resistances (Ohm) that ``meshed_graphs`` draws from.
RESISTANCES = (0.0, 1e-4, 3e-3, 2e-2, 0.1)


@st.composite
def meshed_graphs(draw, resistances=RESISTANCES):
    """Connected AC graphs: a random spanning tree plus extra mesh edges,
    SG and VSC conversion nodes, line resistances from `resistances`
    (lossless lines allowed by default)."""
    n_sm = draw(st.integers(0, 2))
    n_vsc = draw(st.integers(1 if n_sm == 0 else 0, 2))
    n_load = draw(st.integers(1, 11))
    conv = [f"sm{i}" for i in range(n_sm)] + [f"vsc{i}" for i in range(n_vsc)]
    names = conv + [f"ld{i}" for i in range(n_load)]
    pairs = [(a, draw(st.integers(0, a - 1))) for a in range(1, len(names))]
    pairs += draw(st.lists(st.tuples(st.integers(0, len(names) - 1),
                                     st.integers(0, len(names) - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=4))
    edges = []
    for a, b in pairs:
        l = draw(st.floats(1e-6, 1e-3))
        r = draw(st.sampled_from(resistances))
        l_virt = draw(st.sampled_from([0.0, 1e-4, 2.3e-3]))
        kw = {"l_virt_n": l_virt} if names[a].startswith("vsc") else {}
        edges.append(AcEdge(names[a], names[b], l, r, **kw))
    vscs = tuple((n, NodeKind.VSC) for n in conv if n.startswith("vsc"))
    kinds = {"sm": NodeKind.SM, "vs": NodeKind.VSC, "ld": NodeKind.LOAD_AC}
    return HybridGraph(
        ac_nodes=tuple((n, kinds[n[:2]]) for n in names),
        ac_edges=tuple(edges), dc_edges=(), V_ac_star=400.0, omega_star=W0,
        v_dc_star={n: 740.0 for n, _ in vscs})


def with_resistances(g, rho=None):
    """`g` with every AC line lossless, or with `rho` given, with
    r = rho l on every line, so that every edge has that rho."""
    return dataclasses.replace(g, ac_edges=tuple(
        dataclasses.replace(e, r=0.0 if rho is None else rho * e.l)
        for e in g.ac_edges))


def has_adjacent_loads(g):
    loads = set(g.load_names)
    return any(e.n in loads and e.k in loads for e in g.ac_edges)


def denominator_groups(g):
    """Edges touching a load grouped by equal denominator (rho and k equal
    to 1e-9), each with the rank of its load-row incidence columns: the
    group's share of the McMillan degree of L_L(s) is twice that rank."""
    inc = g.incidence_ac()[len(g.conv_names):]
    groups = []
    for j, e in enumerate(g.ac_edges):
        if not inc[:, j].any():
            continue
        for grp in groups:
            f = g.ac_edges[grp[0]]
            if (math.isclose(e.rho, f.rho, rel_tol=1e-9, abs_tol=1e-9)
                    and math.isclose(e.k_nk, f.k_nk, rel_tol=1e-9)):
                grp.append(j)
                break
        else:
            groups.append([j])
    return [(g.ac_edges[js[0]], np.linalg.matrix_rank(inc[:, js]))
            for js in groups]


def assert_zeros_of_load_block(g, roots):
    """Each root lies off every edge pole.  Where it is also well separated
    from them (close to a pole sigma_min cannot be resolved in double
    precision), it makes the load block singular relative to the edge
    weights there."""
    poles = np.array([complex(-e.rho, e.k_nk * g.omega_star)
                      for e in g.ac_edges])
    tfs = [ac_edge_tf(e, g.V_ac_star, g.omega_star) for e in g.ac_edges]
    for z in roots:
        dist = np.min(np.abs(complex(z.real, abs(z.imag)) - poles))
        assert dist > 1e-10 * abs(z)
        if dist > 1e-5 * abs(z):
            nc = len(g.conv_names)
            L_load = assemble_ac_laplacian(g, z)[nc:, nc:]
            sigma = np.linalg.svd(L_load, compute_uv=False)[-1]
            assert sigma <= 1e-8 * max(abs(tf(z)) for tf in tfs)


def assert_all_zeros(g, roots):
    """The roots are all the zeros, multiplicity included.  Their number is
    2 (edges touching a load) - 2 (loads) when all denominators differ,
    less what shared denominators cancel; and at points in the right
    half-plane det L_L(s) prod_k d_k(s)^rank_k = det(G_L) prod_i (s - z_i),
    with G_L the load block of the Laplacian weighted by the edge gains."""
    groups = denominator_groups(g)
    assert len(roots) == (2 * sum(r for _, r in groups)
                          - 2 * len(g.load_names))
    inc = g.incidence_ac()[len(g.conv_names):]
    gains = [ac_edge_tf(e, g.V_ac_star, g.omega_star).num.coeffs[0]
             for e in g.ac_edges]
    log_det_gl = np.linalg.slogdet((inc * gains) @ inc.T)[1]
    scale = max([abs(z) for z in roots] + [W0])
    for s in (scale * (0.3 + 1.0j), scale * (1.5 - 0.2j)):
        nc = len(g.conv_names)
        L_load = assemble_ac_laplacian(g, s)[nc:, nc:]
        sign, log_abs = np.linalg.slogdet(L_load)
        lhs = np.log(sign) + log_abs + sum(
            r * np.log(ac_edge_tf(e, g.V_ac_star, g.omega_star).den(s))
            for e, r in groups)
        rhs = log_det_gl + sum(np.log(s - z) for z in roots)
        assert abs(np.exp(lhs - rhs) - 1.0) < 1e-7


def breadth_first_components(names, edges):
    """Connected components of the graph (names, edges) by breadth-first
    search, in the order of their first node."""
    adj = {n: [] for n in names}
    for e in edges:
        adj[e.n].append(e.k)
        adj[e.k].append(e.n)
    comps, seen = [], set()
    for root in names:
        if root in seen:
            continue
        comp, queue = {root}, collections.deque([root])
        while queue:
            for m in adj[queue.popleft()]:
                if m not in comp:
                    comp.add(m)
                    queue.append(m)
        seen |= comp
        comps.append(comp)
    return comps


class TestComponents:
    @given(meshed_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_match_breadth_first_search(self, g, data):
        # meshed graphs with some loads made VSCs, some AC lines dropped and
        # DC links drawn between the VSCs: the AC components in first-node
        # order, and the verdict on the whole graph's connectivity
        vscs = set(g.dc_names) | data.draw(st.sets(st.sampled_from(
            g.load_names)))
        nodes = tuple((n, NodeKind.VSC if n in vscs else k)
                      for n, k in g.ac_nodes)
        ac = tuple(e for e in g.ac_edges
                   if data.draw(st.sampled_from((True, True, True, False))))
        links = []
        if len(vscs) > 1:
            links = data.draw(st.lists(st.permutations(sorted(vscs)),
                                       max_size=8))
        dc = tuple(DcEdge(n, k, 2.6e-5, data.draw(st.sampled_from(
            (0.0, 0.27)))) for n, k, *_ in links)
        names = [n for n, k in nodes if k is not NodeKind.LOAD_AC] + [
            n for n, k in nodes if k is NodeKind.LOAD_AC]

        def graph():
            return HybridGraph(nodes, ac, dc, g.V_ac_star, g.omega_star,
                               dict.fromkeys(vscs, 740.0))

        if len(breadth_first_components(names, ac + dc)) == 1:
            assert graph().ac_components() == breadth_first_components(
                names, ac)
        else:
            with pytest.raises(ValueError, match="must be connected"):
                graph()


class TestMeshedKron:
    @given(meshed_graphs(), st.floats(min_value=0.05, max_value=5e3))
    @settings(max_examples=50, deadline=None)
    def test_joint_vs_sequential(self, g, w):
        # meshed graphs with adjacent load nodes: the elimination that
        # kron_reduce_symbolic runs against the joint Schur complement;
        # 3000 examples read at most 1.2e-16 and 8.3e-12
        assume(has_adjacent_loads(g))
        nc = len(g.conv_names)
        L = assemble_ac_laplacian(g, 1j * w)
        Gc1, Gl1 = kron_reduce(L, nc)
        Gc2, Gl2 = kron_reduce_sequential(L, nc)
        assert np.max(np.abs(Gc1 - Gc2)) < 1e-10 * np.max(np.abs(L))
        assert np.max(np.abs(Gl1 - Gl2)) < 1e-10


class TestAssumption1:
    def test_uniform_rho_trivial(self):
        v = check_assumption1(chain_graph(uniform_rho=True))
        assert v.verdict == "holds_trivially"

    def test_single_interior_trivial(self):
        v = check_assumption1(chain_graph())
        assert v.verdict == "holds_trivially"

    def test_adjacent_loads_numeric(self):
        v = check_assumption1(adjacent_loads_graph())
        assert v.verdict == "holds"
        assert sorted(v.roots, key=lambda z: z.imag) == [
            pytest.approx(-1493.51 - 1349.49j, abs=0.01),
            pytest.approx(-1493.51 + 1349.49j, abs=0.01)]

    def test_lossless_load_load_edge(self):
        # the edge pole at +-314.16j cancels; the zeros stay in the LHP
        g = adjacent_loads_graph(r_load_load=0.0)
        v = check_assumption1(g)
        assert v.verdict == "holds"
        assert sorted(v.roots, key=lambda z: z.imag) == [
            pytest.approx(-168.83 - 1379.75j, abs=0.01),
            pytest.approx(-168.83 + 1379.75j, abs=0.01)]
        assert_zeros_of_load_block(g, v.roots)
        assert_all_zeros(g, v.roots)

    def test_lossless_load_load_edge_builds_without_warning(self):
        cfg = preset("islanded_pv")
        renamed = {"sm": "sg", "vsc": "vsc1"}
        g = adjacent_loads_graph(r_load_load=0.0)
        g = HybridGraph(
            tuple((renamed.get(n, n), k) for n, k in g.ac_nodes),
            tuple(dataclasses.replace(e, n=renamed.get(e.n, e.n),
                                      k=renamed.get(e.k, e.k))
                  for e in g.ac_edges),
            (), g.V_ac_star, g.omega_star, {"vsc1": 740.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build(dataclasses.replace(cfg, graph=g))
        assert model.network_verdict == "holds"

    @pytest.mark.parametrize("n_loads", [5, 6])
    def test_radial_feeder_many_loads(self, n_loads):
        g = radial_feeder(n_loads)
        v = check_assumption1(g)
        assert v.verdict == "holds"
        assert len(v.roots) == 6
        assert_zeros_of_load_block(g, v.roots)
        assert_all_zeros(g, v.roots)

    def test_same_cable_different_lengths_share_a_denominator(self):
        # rho of the two NAYY 4x35 lines differs in the last bit; treated
        # as two denominators, their common pole came back as a zero
        cat = load_cable_catalog()
        lines = [("sm1", "ld1", "NAYY 4x35", 30.0),
                 ("sm2", "ld1", "NAYY 4x35", 40.0),
                 ("ld1", "ld2", "NAYY 4x240", 20.0),
                 ("ld2", "sm1", "NAYY 4x150", 25.0)]
        edges = []
        for n, k, cable, length in lines:
            r, l = line_impedance(cat, cable, length)
            edges.append(AcEdge(n, k, l, r))
        assert edges[0].rho != edges[1].rho
        g = HybridGraph(
            ac_nodes=(("sm1", NodeKind.SM), ("sm2", NodeKind.SM),
                      ("ld1", NodeKind.LOAD_AC), ("ld2", NodeKind.LOAD_AC)),
            ac_edges=tuple(edges), dc_edges=(),
            V_ac_star=400.0, omega_star=W0)
        v = check_assumption1(g)
        assert v.verdict == "holds"
        assert len(v.roots) == 2
        assert_zeros_of_load_block(g, v.roots)
        assert_all_zeros(g, v.roots)

    @given(meshed_graphs())
    @settings(max_examples=80, deadline=None)
    def test_roots_are_all_zeros_of_det_LL(self, g):
        v = check_assumption1(g)
        assert_zeros_of_load_block(g, v.roots)
        assert_all_zeros(g, v.roots)

    @given(meshed_graphs())
    @settings(max_examples=80, deadline=None)
    def test_fails_exactly_on_a_zero_at_the_axis(self, g):
        v = check_assumption1(g)
        on_axis = any(z.real >= -1e-9 * abs(z) for z in v.roots)
        assert (v.verdict == "fails") == on_axis
        assert (v.verdict == "holds_trivially") == (
            not on_axis and not has_adjacent_loads(g))
        assert v.reason == ("" if v.verdict != "holds_trivially" else
                            "single interior node between conversion nodes")

    @given(meshed_graphs(resistances=RESISTANCES[1:]))
    @settings(max_examples=80, deadline=None)
    def test_lossy_loads_never_fail(self, g):
        # the zero dynamics are a mechanical system with positive definite
        # damping when every edge at a load is lossy
        v = check_assumption1(g)
        assert v.verdict != "fails"
        assert all(z.real < 0 for z in v.roots)

    def test_single_load_between_lossless_lines_fails(self):
        # the uniform-ratio shortcut read holds_trivially here, without
        # computing the zeros, which lie on the imaginary axis
        g = chain_graph(r1=0.0, r2=0.0)
        v = check_assumption1(g)
        assert v.verdict == "fails"
        assert v.reason == ""
        assert sorted(v.roots, key=lambda z: z.imag) == [
            pytest.approx(-14806.36j, abs=0.01),
            pytest.approx(14806.36j, abs=0.01)]
        assert_zeros_of_load_block(g, v.roots)
        assert_all_zeros(g, v.roots)

    def test_lossless_area_with_adjacent_loads_fails(self):
        g = with_resistances(adjacent_loads_graph())
        v = check_assumption1(g)
        assert v.verdict == "fails"
        assert len(v.roots) == 2
        assert all(abs(z.real) <= 1e-9 * abs(z) for z in v.roots)
        assert_zeros_of_load_block(g, v.roots)
        assert_all_zeros(g, v.roots)

    def test_uniform_rho_with_adjacent_loads_holds(self):
        # the uniform-ratio shortcut returned no roots here
        g = with_resistances(adjacent_loads_graph(), rho=1000.0)
        v = check_assumption1(g)
        assert v.verdict == "holds"
        assert v.reason == ""
        assert len(v.roots) == 2
        assert all(z.real < 0 for z in v.roots)
        assert_zeros_of_load_block(g, v.roots)
        assert_all_zeros(g, v.roots)

    def test_no_loads(self):
        v = check_assumption1(dc_pair_graph())
        assert dataclasses.astuple(v) == ("holds_trivially", (), "no load nodes")

    def test_loads_without_conversion_node_rejected(self):
        with pytest.raises(ValueError):
            HybridGraph(
                ac_nodes=(("a", NodeKind.LOAD_AC), ("b", NodeKind.LOAD_AC)),
                ac_edges=(AcEdge("a", "b", 1e-5, 1e-3),),
                dc_edges=(), V_ac_star=400.0, omega_star=W0)


class TestCatalog:
    def test_default_catalog_entries(self):
        cat = load_cable_catalog()
        assert "NAYY 4x240" in cat

    def test_line_impedance_loop_doubles(self):
        cat = load_cable_catalog()
        r1, l1 = line_impedance(cat, "H07RN-F 2x6", 40.0)
        r2, l2 = line_impedance(cat, "H07RN-F 2x6", 40.0, loop=True)
        assert r2 == pytest.approx(2 * r1)
        assert l2 == pytest.approx(2 * l1)

    def test_unknown_cable(self):
        with pytest.raises(KeyError):
            line_impedance({}, "bogus", 1.0)

    @pytest.mark.parametrize("length", [-10.0, 0.0, math.nan, math.inf])
    def test_length_must_be_finite_and_positive(self, length):
        # a negative length would give a negative r and l, which surfaced
        # only later, as AcEdge.l
        with pytest.raises(ValueError, match=rf"length_m .* got {length}"):
            line_impedance(load_cable_catalog(), "NAYY 4x35", length)

"""Hybrid AC/DC network graphs, linearized edge transfer functions,
Laplacian assembly, generalized Kron reduction of load nodes, and the
network's blocks of the closed loop (``network_blocks``).

Angles are in radians, node voltages in volts; edge transfer functions map
angle differences (AC) or voltage differences (DC) to power in watts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Sequence

import numpy as np

from .lti import (MAX_COND, EntrywiseBlock, NumericFailure, PoleHit,
                  Polynomial, RationalTF, _strong_blocks, check_fields,
                  check_real, tf_to_ss)


class ParseError(ValueError):
    """A JSON file is unreadable or not valid JSON."""


class EdgePole(NumericFailure):
    """Evaluation frequency coincides with an edge transfer-function pole."""


class SingularLL(NumericFailure):
    """Load-block L_L is numerically singular at the requested point."""


class NodeKind(Enum):
    SM = "sm"
    VSC = "vsc"
    LOAD_AC = "load_ac"
    INFINITE_BUS = "infinite_bus"


_CONV_KINDS = (NodeKind.SM, NodeKind.VSC, NodeKind.INFINITE_BUS)


@dataclass(frozen=True)
class AcEdge:
    """Series RL line between AC nodes n and k, with the quasi-steady-state
    virtual impedance of VSC endpoints lumped in."""

    n: str
    k: str
    l: float                 # H
    r: float                 # Ohm
    l_virt_n: float = 0.0    # H
    l_virt_k: float = 0.0
    r_virt_n: float = 0.0    # Ohm
    r_virt_k: float = 0.0

    def __post_init__(self):
        if self.n == self.k:
            raise ValueError(f"AC edge joins node {self.n!r} to itself")
        check_fields(self, positive=("l",), nonnegative=(
            "r", "l_virt_n", "l_virt_k", "r_virt_n", "r_virt_k"))

    @property
    def k_nk(self) -> float:
        return (self.l_virt_n + self.l_virt_k + self.l) / self.l

    @property
    def rho(self) -> float:
        return (self.r_virt_n + self.r_virt_k + self.r) / self.l


@dataclass(frozen=True)
class DcEdge:
    """Series RL DC link between DC nodes n and k."""

    n: str
    k: str
    l_dc: float              # H
    r_dc: float              # Ohm

    def __post_init__(self):
        if self.n == self.k:
            raise ValueError(f"DC edge joins node {self.n!r} to itself")
        check_fields(self, positive=("l_dc",), nonnegative=("r_dc",))


def _ac_edge_gain(e: AcEdge, V_ac_star: float, omega_star: float) -> float:
    """Numerator k V*^2 w* / l of ac_edge_tf, in W/(rad s^2)."""
    return e.k_nk * V_ac_star**2 * omega_star / e.l


def ac_edge_tf(e: AcEdge, V_ac_star: float, omega_star: float) -> RationalTF:
    """Angle-difference-to-power transfer function
    k V*^2 w* / (l (s^2 + 2 rho s + rho^2 + (k w*)^2))."""
    gain = _ac_edge_gain(e, V_ac_star, omega_star)
    den = Polynomial([e.rho**2 + (e.k_nk * omega_star) ** 2, 2.0 * e.rho, 1.0])
    return RationalTF(Polynomial([gain]), den)


def dc_edge_tf(e: DcEdge, v_dc_star_n: float) -> RationalTF:
    """Voltage-difference-to-power flow v*_n / (l s + r) out of node n.
    Given v*_n - v*_k instead of v*_n, it is the edge's loss injection."""
    return RationalTF(Polynomial([v_dc_star_n]),
                      Polynomial([e.r_dc, e.l_dc]))


@dataclass(frozen=True)
class HybridGraph:
    """Typed hybrid AC/DC network with its linearization operating point.

    AC node order is normalized so load nodes come last.  The DC nodes are
    the VSC nodes, in AC order: every VSC has a DC terminal, and only VSCs
    do.  The graph must be connected, and a lossless DC edge must join
    equal setpoints: between unequal ones it has no operating point.
    """

    ac_nodes: tuple[tuple[str, NodeKind], ...]
    ac_edges: tuple[AcEdge, ...]
    dc_edges: tuple[DcEdge, ...]
    V_ac_star: float
    omega_star: float
    v_dc_star: dict = field(default_factory=dict)   # node name -> V

    def __post_init__(self):
        ac = [(str(n), k) for n, k in self.ac_nodes]
        seen = set()
        for n, _ in ac:
            if n in seen:
                raise ValueError(f"AC node {n!r} is listed twice")
            seen.add(n)
        conv = [(n, k) for n, k in ac if k is not NodeKind.LOAD_AC]
        load = [(n, k) for n, k in ac if k is NodeKind.LOAD_AC]
        for n, k in conv:
            if k not in _CONV_KINDS:
                raise ValueError(f"invalid AC node kind for {n}: {k}")
        object.__setattr__(self, "ac_nodes", tuple(conv + load))
        object.__setattr__(self, "ac_edges", tuple(self.ac_edges))
        object.__setattr__(self, "dc_edges", tuple(self.dc_edges))
        check_fields(self, positive=("V_ac_star", "omega_star"))
        if load and not conv:
            raise ValueError("load nodes need at least one conversion node")
        kinds = dict(self.ac_nodes)
        dc_names = self.dc_names
        for e in self.ac_edges:
            if e.n not in kinds or e.k not in kinds:
                raise ValueError(f"AC edge references unknown node {e.n}/{e.k}")
            for end, lv, rv in ((e.n, e.l_virt_n, e.r_virt_n),
                                (e.k, e.l_virt_k, e.r_virt_k)):
                if kinds[end] is not NodeKind.VSC and (lv != 0 or rv != 0):
                    raise ValueError(
                        f"virtual impedance on non-VSC endpoint {end}")
        for e in self.dc_edges:
            if e.n not in dc_names or e.k not in dc_names:
                raise ValueError(f"DC edge references unknown node {e.n}/{e.k}")
        for n in dc_names:
            if n not in self.v_dc_star:
                raise ValueError(f"missing DC setpoint for node {n}")
            check_real(f"HybridGraph.v_dc_star[{n!r}]", self.v_dc_star[n],
                       "positive")
        for e in self.dc_edges:
            if e.r_dc == 0 and self.v_dc_star[e.n] != self.v_dc_star[e.k]:
                raise ValueError(f"lossless DC edge {e.n}-{e.k} between "
                                 "unequal setpoints has no operating point")
        if len(self._connected_sets(self.ac_edges + self.dc_edges)) != 1:
            raise ValueError("hybrid graph must be connected")

    # -- node bookkeeping ---------------------------------------------------

    @property
    def ac_names(self) -> list[str]:
        return [n for n, _ in self.ac_nodes]

    @property
    def conv_names(self) -> list[str]:
        return [n for n, k in self.ac_nodes if k is not NodeKind.LOAD_AC]

    @property
    def load_names(self) -> list[str]:
        return [n for n, k in self.ac_nodes if k is NodeKind.LOAD_AC]

    @property
    def dc_nodes(self) -> tuple[tuple[str, NodeKind], ...]:
        return tuple((n, k) for n, k in self.ac_nodes if k is NodeKind.VSC)

    @property
    def dc_names(self) -> list[str]:
        return [n for n, k in self.ac_nodes if k is NodeKind.VSC]

    def incidence_ac(self) -> np.ndarray:
        idx = {n: i for i, n in enumerate(self.ac_names)}
        B = np.zeros((len(idx), len(self.ac_edges)))
        for j, e in enumerate(self.ac_edges):
            B[idx[e.n], j] = 1.0
            B[idx[e.k], j] = -1.0
        return B

    def ac_components(self) -> list[set[str]]:
        """Connected components of the AC subgraph, in the order of their
        first node."""
        return self._connected_sets(self.ac_edges)

    def _connected_sets(self, edges) -> list[set[str]]:
        """Connected components of the graph on the AC nodes with `edges`,
        in the order of their first node: the strongly connected blocks of
        its symmetric adjacency matrix."""
        names = self.ac_names
        idx = {n: i for i, n in enumerate(names)}
        adj = np.zeros((len(names), len(names)))
        for e in edges:
            adj[idx[e.n], idx[e.k]] = adj[idx[e.k], idx[e.n]] = 1.0
        return [{names[i] for i in b} for b in _strong_blocks(adj)]


# --------------------------------------------------------------------------
# Laplacian assembly
# --------------------------------------------------------------------------

def _laplacian(names, edges, weights, zero) -> list[list]:
    """The weighted Laplacian over `names` as nested lists: each edge
    (n, k) with weights (w_n, w_k, ...) adds w_n at (n, n) and w_k at
    (k, k), and subtracts w_n at (n, k) and w_k at (k, n).  The entries are
    transfer functions or their values, starting from `zero`."""
    idx = {n: i for i, n in enumerate(names)}
    L = [[zero for _ in names] for _ in names]
    for e, (wn, wk, *_) in zip(edges, weights):
        i, j = idx[e.n], idx[e.k]
        L[i][i] = L[i][i] + wn
        L[j][j] = L[j][j] + wk
        L[i][j] = L[i][j] - wn
        L[j][i] = L[j][i] - wk
    return L


def _at(edges, weights, s: complex) -> list[tuple]:
    """Each edge's transfer functions in `weights` evaluated at s; EdgePole
    naming the edge when s is a pole of one (``RationalTF``'s PoleHit)."""
    out = []
    for e, tfs in zip(edges, weights):
        try:
            out.append(tuple(tf(s) for tf in tfs))
        except PoleHit:
            raise EdgePole(f"s = {s} is a pole of edge ({e.n},{e.k})")
    return out


def _ac_edge_tfs(g: HybridGraph) -> list[tuple[RationalTF, RationalTF]]:
    return [(ac_edge_tf(e, g.V_ac_star, g.omega_star),) * 2
            for e in g.ac_edges]


def ac_laplacian_tfs(g: HybridGraph) -> list[list[RationalTF]]:
    """Rational weighted AC Laplacian in the load-last node order."""
    return _laplacian(g.ac_names, g.ac_edges, _ac_edge_tfs(g),
                      RationalTF.constant(0.0))


def assemble_ac_laplacian(g: HybridGraph, s: complex) -> np.ndarray:
    """The weighted AC Laplacian at s, over ``g.ac_names``: conversion
    nodes first, so that with nc of them ``L[nc:, nc:]`` is the load block
    that ``kron_reduce`` eliminates."""
    w = _at(g.ac_edges, _ac_edge_tfs(g), s)
    return np.array(_laplacian(g.ac_names, g.ac_edges, w, 0j), dtype=complex)


def _dc_laplacian(g: HybridGraph, s: complex | None = None):
    """The DC Laplacian and loss vector from each edge's v*_n/(ls + r),
    v*_k/(ls + r) and loss injection (v*_n - v*_k)/(ls + r): transfer
    functions, or with `s` their values at s."""
    v, zero = g.v_dc_star, RationalTF.constant(0.0)
    w = [(dc_edge_tf(e, v[e.n]), dc_edge_tf(e, v[e.k]),
          dc_edge_tf(e, v[e.n] - v[e.k])) for e in g.dc_edges]
    if s is not None:
        w, zero = _at(g.dc_edges, w, s), 0j
    L = _laplacian(g.dc_names, g.dc_edges, w, zero)
    idx = {n: i for i, n in enumerate(g.dc_names)}
    loss = [zero for _ in idx]
    for e, (_, _, dv) in zip(g.dc_edges, w):
        i, j = idx[e.n], idx[e.k]
        loss[i] = loss[i] + dv
        loss[j] = loss[j] - dv
    return L, loss


def assemble_dc_laplacian(g: HybridGraph, s: complex):
    """Evaluate the weighted DC Laplacian (asymmetric for unequal setpoints)
    at s, plus the diagonal loss-injection vector."""
    L, loss = _dc_laplacian(g, s)
    return (np.array(L, dtype=complex).reshape(len(loss), len(loss)),
            np.array(loss, dtype=complex))


def dc_laplacian_tfs(g: HybridGraph):
    """Rational DC Laplacian and diagonal loss injection transfer functions."""
    return _dc_laplacian(g)


# --------------------------------------------------------------------------
# Kron reduction and the network's blocks of the closed loop
# --------------------------------------------------------------------------

def kron_reduce(L: np.ndarray, n_conv: int, s: complex = None):
    """Joint Schur-complement elimination of the trailing load block of a
    Laplacian evaluated at one point; the reference for ``_eliminate``.

    Returns (G_conv, G_load) with G_conv = L11 - L12 L22^-1 L21 and the
    consumption-positive load map G_load = -L12 L22^-1 (columns sum to one at
    s = 0 for a connected network).
    """
    L = np.asarray(L)
    n = L.shape[0]
    if n_conv > n:
        raise ValueError("n_conv exceeds matrix size")
    if n_conv == n:
        return L.copy(), np.zeros((n, 0), dtype=L.dtype)
    L11 = L[:n_conv, :n_conv]
    L12 = L[:n_conv, n_conv:]
    L21 = L[n_conv:, :n_conv]
    L22 = L[n_conv:, n_conv:]
    if np.linalg.cond(L22) > MAX_COND:
        raise SingularLL(f"load block singular at s = {s}")
    X = np.linalg.solve(L22.T, L12.T).T      # L12 L22^-1
    return L11 - X @ L21, -X


def _eliminate(L, n_conv: int, one, cancel):
    """Scalar-pivot elimination of the trailing load nodes of L, last first,
    skipping zero (falsy) entries: (G_conv, G_load) of ``kron_reduce`` as
    nested lists.  The entries are transfer functions or their values, with
    unit `one`, and `cancel` runs on every updated entry."""
    M = [list(row) for row in L]
    n = len(M)
    W = [[0.0 * one for _ in range(n - n_conv)] for _ in range(n)]
    for c in range(n - n_conv):
        W[n_conv + c][c] = -1.0 * one
    for e in range(n - 1, n_conv - 1, -1):
        piv = M[e][e]
        if not piv:
            raise SingularLL("zero pivot in sequential elimination")
        for i in range(e):
            if not M[i][e]:
                continue
            f = cancel(M[i][e] / piv)
            for j in range(e):
                if M[e][j]:
                    M[i][j] = cancel(M[i][j] - f * M[e][j])
            for c in range(n - n_conv):
                if W[e][c]:
                    W[i][c] = cancel(W[i][c] - f * W[e][c])
    return ([row[:n_conv] for row in M[:n_conv]],
            [[cancel(-1.0 * w) for w in row] for row in W[:n_conv]])


def kron_reduce_sequential(L: np.ndarray, n_conv: int):
    """``_eliminate`` on the values of a Laplacian at one point; agrees
    with ``kron_reduce`` up to roundoff."""
    M, W = _eliminate(np.asarray(L, dtype=complex).tolist(), n_conv, 1 + 0j,
                      lambda x: x)
    return (np.array(M, dtype=complex).reshape(n_conv, n_conv),
            np.array(W, dtype=complex).reshape(n_conv, len(L) - n_conv))


def kron_reduce_symbolic(L: Sequence[Sequence[RationalTF]], n_conv: int):
    """``_eliminate`` on transfer functions, cancelling common factors by
    root matching after each update: (G_conv, G_load) of RationalTF."""
    return _eliminate(L, n_conv, RationalTF.constant(1.0),
                      lambda tf: tf.simplify())


def _mimo_from_tf_matrix(tfm, input_names, output_names) -> EntrywiseBlock:
    """Realize a matrix of rational transfer functions entrywise: one SISO
    part per nonzero entry, in row-major order, for ``compose`` to place."""
    parts = tuple((i, j, tf_to_ss(tf)) for i, row in enumerate(tfm)
                  for j, tf in enumerate(row) if tf)
    return EntrywiseBlock(parts, tuple(input_names), tuple(output_names))


def network_blocks(g: HybridGraph, base) -> dict[str, EntrywiseBlock]:
    """The network's blocks of the closed loop in the per-unit base `base`,
    for ``compose``.  Any realization of the network meets this channel
    contract, and ``build`` wires the devices to these channels alone:
    ``acnet`` reads ``th_<conv>`` (rad) and ``pl_<load>`` (p.u.,
    consumption-positive) and writes ``p_<conv>`` (p.u.), the power each
    conversion node sends into the network; ``dcnet``, when there are DC
    edges, reads ``v_<vsc>`` (p.u.) and writes ``p_<vsc>`` (p.u.), the
    power each VSC sends into the DC network, losses included.  Here both
    are symbolic Laplacians, Kron-reduced, scaled to per unit, simplified
    and realized entry by entry."""
    conv, loads, blocks = g.conv_names, g.load_names, {}
    # reduced AC network in per-unit power
    L = ac_laplacian_tfs(g)
    G_conv, G_load = kron_reduce_symbolic(L, len(conv))
    # angle inputs: W per rad -> p.u. per rad; load inputs are already
    # power-to-power and stay dimensionless
    scale = 1.0 / base.S_base
    net_tfm = [[(scale * G_conv[i][j]).simplify() for j in range(len(conv))]
               + [G_load[i][c].simplify() for c in range(len(loads))]
               for i in range(len(conv))]
    net_inputs = [f"th_{n}" for n in conv] + [f"pl_{n}" for n in loads]
    net_outputs = [f"p_{n}" for n in conv]
    blocks["acnet"] = _mimo_from_tf_matrix(net_tfm, net_inputs, net_outputs)

    # DC network in per-unit power over per-unit node voltages
    if g.dc_edges:
        Ldc, loss = dc_laplacian_tfs(g)
        k_v = base.V_base_dc / base.S_base
        dc_tfm = [[(k_v * tf).simplify() for tf in row] for row in Ldc]
        # the loss injection acts on each node's own voltage
        for i, tf in enumerate(loss):
            dc_tfm[i][i] = (dc_tfm[i][i] + (k_v * tf).simplify()).simplify()
        dc_names = g.dc_names
        blocks["dcnet"] = _mimo_from_tf_matrix(
            dc_tfm, [f"v_{n}" for n in dc_names],
            [f"p_{n}" for n in dc_names])
    return blocks


# --------------------------------------------------------------------------
# Assumption-1 style stability of the load block
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadBlockVerdict:
    verdict: str                  # "holds" | "fails" | "holds_trivially"
    roots: tuple[complex, ...]
    reason: str = ""


def _close(a: float, b: float) -> bool:
    """Edge ratios rho or k that agree to 1e-9 count as equal: lines of one
    cable type differ in the last bits with their length."""
    return abs(a - b) <= 1e-9 * (1.0 + max(a, b))


def check_assumption1(g: HybridGraph) -> LoadBlockVerdict:
    """Stability of the inverse of the load block L_L(s) of the AC
    Laplacian: every zero of det L_L(s) must lie in the open left half-plane.

    The zeros are the eigenvalues of one matrix, the zero dynamics of a
    minimal realization of L_L(s), and ``roots`` holds all of them,
    whatever the verdict:

    * Edges touching a load are grouped by denominator
      d_k(s) = (s + rho_k)^2 + (k_k w*)^2 (rho and k equal to 1e-9), so that
      L_L(s) = F diag(1/d(s)) F^T, where F F^T = sum_e g_e b_e b_e^T
      (b_e: load rows of the incidence column, g_e = k V*^2 w*/l) and F has
      rank(b_e of the group) columns per group.  Grouping keeps the
      realization minimal, so no edge pole comes back as a zero.
    * Each column f of F is a two-state oscillator z' = -rho z + q,
      q' = -(k w*)^2 z - rho q + f^T u, with output y = F z.  Every output
      has relative degree 2 and decoupling matrix F F^T, a Laplacian load
      block with positive weights; it is nonsingular because every load
      reaches a conversion node, so det L_L never vanishes identically.
    * Holding y = 0 leaves z = N a and q = P N a + N b, with N an
      orthonormal basis of ker F and P = diag(rho).  The zero dynamics are
      a'' + 2 N^T P N a' + N^T (P^2 + W^2) N a = 0 with W = diag(k w*),
      and their 2 (columns of F - loads) eigenvalues are the zeros.

    The zero dynamics are a damped mechanical system: N^T (P^2 + W^2) N
    is positive definite (k w* > 0), and when every edge at a load is
    lossy (rho > 0) so is the damping 2 N^T P N, which puts every zero in
    the open left half-plane.  Only a lossless edge at a load can make the
    verdict ``fails``.  A verdict that holds on a graph with no two
    adjacent loads is labelled ``holds_trivially``, with the ``reason``
    "single interior node between conversion nodes"; the ``check`` command
    writes only the verdict.
    """
    load = set(g.load_names)
    if not load:
        return LoadBlockVerdict("holds_trivially", (), "no load nodes")
    inc = g.incidence_ac()[len(g.conv_names):]
    groups: list[list[int]] = []
    for j, e in enumerate(g.ac_edges):
        if not inc[:, j].any():
            continue
        for grp in groups:
            f = g.ac_edges[grp[0]]
            if _close(e.rho, f.rho) and _close(e.k_nk, f.k_nk):
                grp.append(j)
                break
        else:
            groups.append([j])
    cols, rho, freq = [], [], []
    for js in groups:
        Bk = inc[:, js]
        gains = [_ac_edge_gain(g.ac_edges[j], g.V_ac_star, g.omega_star)
                 for j in js]
        lam, U = np.linalg.eigh((Bk * gains) @ Bk.T)
        rank = np.linalg.matrix_rank(Bk)
        cols.append(U[:, -rank:] * np.sqrt(lam[-rank:]))
        e = g.ac_edges[js[0]]
        rho += [e.rho] * rank
        freq += [e.k_nk * g.omega_star] * rank
    F = np.hstack(cols)
    N = np.linalg.svd(F)[2][len(load):].T
    rho, freq = np.array(rho), np.array(freq)
    m = N.shape[1]
    Z = np.block([[np.zeros((m, m)), np.eye(m)],
                  [-N.T @ ((rho**2 + freq**2)[:, None] * N),
                   -2.0 * N.T @ (rho[:, None] * N)]])
    roots = tuple(complex(r) for r in np.linalg.eigvals(Z))
    # an undamped zero on the axis computes at Re z/|z| of rounding size,
    # either sign, so the axis is a band 1e-9 |z| wide
    if any(r.real >= -1e-9 * abs(r) for r in roots):
        return LoadBlockVerdict("fails", roots)
    if not any(e.n in load and e.k in load for e in g.ac_edges):
        return LoadBlockVerdict("holds_trivially", roots,
                                "single interior node between conversion nodes")
    return LoadBlockVerdict("holds", roots)


# --------------------------------------------------------------------------
# cable catalog
# --------------------------------------------------------------------------

def _read_json(path: str, what: str):
    """The JSON value in the file at `path`; a read failure or invalid JSON
    raises ParseError naming `what` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {what} {path!r} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read {what} {path!r}: {reason}") from exc


def load_cable_catalog(path: str | None = None) -> dict:
    """Per-km series impedance catalog (external datasheet values, not
    measured ground truth): the packaged one, or the ``cables`` object of
    the JSON file at `path`, each of whose entries must be an object with a
    nonnegative ``r_ohm_per_km`` and a positive ``x_ohm_per_km``."""
    if path is None:
        return json.loads(resources.files("acdcdyn").joinpath(
            "data/cables.json").read_text())["cables"]
    if not isinstance(path, str):
        raise TypeError(f"cable_catalog must be a path string, got {path!r}")
    data = _read_json(path, "cable_catalog")
    if not (isinstance(data, dict) and isinstance(data.get("cables"), dict)):
        raise ValueError(f"cable_catalog {path!r} must be a JSON object with "
                         f"a 'cables' object")
    for name, entry in data["cables"].items():
        where = f"cable_catalog {path!r}: cables.{name}"
        if not isinstance(entry, dict):
            raise TypeError(f"{where} must be an object, got {entry!r}")
        for key, kind in (("r_ohm_per_km", "nonnegative"),
                          ("x_ohm_per_km", "positive")):
            check_real(f"{where}.{key}", entry.get(key), kind)
    return data["cables"]


def line_impedance(catalog: dict, cable: str, length_m: float,
                   f_hz: float = 50.0, loop: bool = False):
    """Series (r in ohm, l in H) of a cable segment; `loop` doubles the values
    for a two-conductor go-and-return DC circuit."""
    if cable not in catalog:
        raise KeyError(f"unknown cable type {cable!r}")
    entry = catalog[cable]
    km = check_real("length_m", length_m, "positive") / 1000.0
    mult = 2.0 if loop else 1.0
    r = mult * entry["r_ohm_per_km"] * km
    l = mult * entry["x_ohm_per_km"] * km / (2.0 * math.pi * f_hz)
    return r, l

"""Closed-loop model assembly for hybrid AC/DC networks under dual-port GFM
control, plus scenario presets and the static steady state.

The interconnection follows the signal flow: controller frequency -> angle
integrator -> AC network -> conversion energy balance, with generation
resources (governor, PV) feeding the conversion units and VSC DC terminals
coupled through the DC network.  Converters are lossless (AC power equals DC
power); DC network losses are retained where setpoints differ.
"""

from __future__ import annotations

import copy
import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .lti import (MAX_COND, NumericFailure, StateSpace, check_real,
                  compose, integrator, is_real, tf_to_ss)
from .network import (AcEdge, DcEdge, HybridGraph, NodeKind,
                      check_assumption1, line_impedance, load_cable_catalog,
                      network_blocks)
from .units import (GfmCtrlParams, PerUnitBase, SgParams, VscParams,
                    convert_k_pv, gfm_ctrl_tf, governor_droop_tf,
                    sg_damping_tf, sm_tf, vsc_dclink_tf)


class ImproperController(ValueError):
    """Realization requested with an ideal (tau_kd = 0) differentiator."""


class NoDroop(NumericFailure):
    """An AC area has no steady-state droop, of its own or over DC links;
    the steady state is marginal."""


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one closed-loop system."""

    graph: HybridGraph
    base: PerUnitBase
    sg: dict                   # SM node name -> SgParams
    vsc: dict                  # VSC node name -> VscParams
    ratio_bounds: dict = field(default_factory=dict)  # VSC -> k_d/k_p bound

    def __post_init__(self):
        for params, kind in ((self.sg, NodeKind.SM), (self.vsc, NodeKind.VSC)):
            nodes = {n for n, k in self.graph.ac_nodes if k is kind}
            if set(params) != nodes:
                raise ValueError(
                    f"{kind.name} parameters given for {sorted(params)}, "
                    f"but the graph's {kind.name} nodes are {sorted(nodes)}")
        stray = sorted(set(self.ratio_bounds) - set(self.vsc))
        if stray:
            raise ValueError(f"ratio bounds given for {stray}, which are "
                             "not VSC nodes")
        for n, bound in self.ratio_bounds.items():
            check_real(f"SystemConfig.ratio_bounds[{n!r}]", bound, "positive")


@dataclass(frozen=True)
class ClosedLoopModel:
    ss: StateSpace
    network_verdict: str = ""


@dataclass(frozen=True)
class SteadyState:
    domega: float              # p.u.
    dv_dc: dict                # VSC node -> p.u.
    dp_tg: float               # p.u.
    dp_pv: float               # p.u.
    dp_ac: dict                # conversion node -> p.u.
    kappa_tg: float            # effective governor droop (inverse stiffness)
    kappa_pv: float


# --------------------------------------------------------------------------
# closed-loop assembly
# --------------------------------------------------------------------------

def build(config: SystemConfig, check_network: bool = True) -> ClosedLoopModel:
    """Assemble the interconnected closed-loop state-space model: the
    device blocks, wired to the channels of ``network_blocks``.

    Inputs: p_load_<node> per load node (p.u., consumption-positive),
    omega_pg when an infinite bus is present, n_<vsc> measurement noise.
    Outputs: omega/v_dc/p_ac/p_dc per unit plus governor and PV powers.
    """
    g = config.graph
    base = config.base
    for name, p in config.vsc.items():
        if p.control.tau_kd == 0.0:
            raise ImproperController(
                f"controller at {name} has tau_kd = 0 (not realizable)")
    verdict = check_assumption1(g).verdict if check_network else ""
    if verdict == "fails":
        warnings.warn("load-block inverse is unstable; the assembled "
                      "model inherits unstable network modes")

    conv = g.conv_names
    loads = g.load_names
    blocks: dict = network_blocks(g, base)
    conns: list[tuple[str, str, float]] = []
    ext_in: list[str] = []
    ext_out: list[tuple[str, str]] = []   # (public name, internal channel)

    kinds = dict(g.ac_nodes)
    for n in conv:
        kind = kinds[n]
        if kind is NodeKind.SM:
            p = config.sg[n]
            blocks[f"sm_{n}"] = tf_to_ss(sm_tf(p, base), "p", "omega")
            blocks[f"tg_{n}"] = tf_to_ss(
                governor_droop_tf(p, base), "omega", "p")
            blocks[f"dmp_{n}"] = tf_to_ss(sg_damping_tf(p, base), "omega", "p")
            blocks[f"th_{n}"] = integrator(base.omega_base, "omega", "theta")
            conns += [
                (f"sm_{n}.p", f"tg_{n}.p", 1.0),
                (f"sm_{n}.p", f"dmp_{n}.p", 1.0),
                (f"dmp_{n}.omega", f"sm_{n}.omega", 1.0),
                (f"sm_{n}.p", f"acnet.p_{n}", -1.0),
                (f"tg_{n}.omega", f"sm_{n}.omega", 1.0),
                (f"th_{n}.omega", f"sm_{n}.omega", 1.0),
            ]
            ext_out += [(f"omega_{n}", f"sm_{n}.omega"),
                        (f"p_ac_{n}", f"acnet.p_{n}"),
                        (f"p_tg_{n}", f"tg_{n}.p")]
        elif kind is NodeKind.VSC:
            p = config.vsc[n]
            cap = vsc_dclink_tf(p, g.v_dc_star[n], base)
            blocks[f"cap_{n}"] = tf_to_ss(cap, "p", "v")
            blocks[f"ctr_{n}"] = tf_to_ss(gfm_ctrl_tf(p.control), "v", "omega")
            blocks[f"th_{n}"] = integrator(base.omega_base, "omega", "theta")
            conns += [
                (f"cap_{n}.p", f"acnet.p_{n}", -1.0),
                (f"ctr_{n}.v", f"cap_{n}.v", 1.0),
                (f"ctr_{n}.v", f"n_{n}", 1.0),
                (f"th_{n}.omega", f"ctr_{n}.omega", 1.0),
            ]
            ext_in.append(f"n_{n}")
            if p.k_pv is not None:
                blocks[f"pv_{n}"] = StateSpace.static(
                    [[-p.k_pv]], ("v",), ("p",))
                conns += [(f"pv_{n}.v", f"cap_{n}.v", 1.0),
                          (f"cap_{n}.p", f"pv_{n}.p", 1.0)]
                ext_out.append((f"p_pv_{n}", f"pv_{n}.p"))
            if "dcnet" in blocks:
                conns += [(f"dcnet.v_{n}", f"cap_{n}.v", 1.0),
                          (f"cap_{n}.p", f"dcnet.p_{n}", -1.0)]
                ext_out.append((f"p_dc_{n}", f"dcnet.p_{n}"))
            ext_out += [(f"omega_{n}", f"ctr_{n}.omega"),
                        (f"v_dc_{n}", f"cap_{n}.v"),
                        (f"p_ac_{n}", f"acnet.p_{n}")]
        elif kind is NodeKind.INFINITE_BUS:
            blocks[f"th_{n}"] = integrator(base.omega_base, "omega", "theta")
            conns.append((f"th_{n}.omega", "omega_pg", 1.0))

    conns += [(f"acnet.th_{n}", f"th_{n}.theta", 1.0) for n in conv]
    conns += [(f"acnet.pl_{n}", f"p_load_{n}", 1.0) for n in loads]

    ext_inputs = [f"p_load_{n}" for n in loads]
    if NodeKind.INFINITE_BUS in kinds.values():
        ext_inputs.append("omega_pg")
    ext_inputs += ext_in

    ss = compose(blocks, conns, ext_inputs, [ch for _, ch in ext_out])
    ss = StateSpace(ss.A, ss.B, ss.C, ss.D, ss.input_names,
                    tuple(name for name, _ in ext_out))
    return ClosedLoopModel(ss, verdict)


# --------------------------------------------------------------------------
# static steady state
# --------------------------------------------------------------------------

def steady_state(config: SystemConfig, dp_load: float) -> SteadyState:
    """Steady state after a load step of `dp_load` (p.u. in the system
    base, consumption-positive) at the first load node, assuming lossless
    conversion.

    One static linear solve, the same for every topology.  The unknowns are
    the frequency deviation of each AC area without an infinite bus (an
    area with one is pinned at zero) and the current deviation of each DC
    edge, in p.u. of S_base/V_base_dc.  Each VSC's DC voltage follows its
    area's frequency, dv = domega/k_p.  Each unpinned area balances power:
    governor and PV droop plus the VSCs' DC export meet the load.  Each DC
    edge obeys r di = dv_n - dv_k; a lossless edge makes this a constraint,
    and joins equal setpoints (``HybridGraph`` refuses any other).  A VSC
    exports dp = v*_n di + i* dv_n into an edge, the product rule on v i
    at the nominal current i* = (v*_n - v*_k)/r, zero on a lossless edge.
    Raises NoDroop when the system is singular, i.e. some area has no
    steady-state droop."""
    g, base = config.graph, config.base
    if not g.load_names:
        raise ValueError("the steady state needs a load node")
    check_real("dp_load", dp_load)
    k_tg = {n: p.k_tg * p.P_max / base.S_base for n, p in config.sg.items()}
    k_pv = {n: (0.0 if p.k_pv is None else p.k_pv) / p.control.k_p
            for n, p in config.vsc.items()}
    kappa_tg_inv = sum(k_tg.values())
    kappa_pv_inv = sum(k_pv.values())
    kappa_tg = math.inf if kappa_tg_inv == 0 else 1.0 / kappa_tg_inv
    kappa_pv = math.inf if kappa_pv_inv == 0 else 1.0 / kappa_pv_inv

    kinds = dict(g.ac_nodes)
    areas = [c for c in g.ac_components()
             if all(kinds[n] is not NodeKind.INFINITE_BUS for n in c)]
    area = {n: a for a, comp in enumerate(areas) for n in comp}
    na = len(areas)
    size = na + len(g.dc_edges)
    M = np.zeros((size, size))
    rhs = np.zeros(size)
    if g.load_names[0] in area:
        rhs[area[g.load_names[0]]] = -dp_load
    for n, k in (*k_tg.items(), *k_pv.items()):
        if n in area:
            M[area[n], area[n]] += k
    v_pu = {n: v / base.V_base_dc for n, v in g.v_dc_star.items()}
    r_base = base.V_base_dc**2 / base.S_base
    i_star = []
    for j, e in enumerate(g.dc_edges, start=na):
        r = e.r_dc / r_base
        i_star.append((v_pu[e.n] - v_pu[e.k]) / r if r else 0.0)
        M[j, j] = r
        for end, sign in ((e.n, 1.0), (e.k, -1.0)):
            if end in area:
                a = area[end]
                inv_kp = 1.0 / config.vsc[end].control.k_p
                M[j, a] -= sign * inv_kp
                M[a, j] += sign * v_pu[end]
                M[a, a] += sign * i_star[-1] * inv_kp
    if size and np.linalg.cond(M) > MAX_COND:
        raise NoDroop("an AC area has no steady-state droop")
    x = np.linalg.solve(M, rhs).tolist()

    # x + 0.0 and 0.0 - x turn -0.0 into 0.0: pinned quantities read "0"
    domega = {n: x[area[n]] + 0.0 if n in area else 0.0 for n in kinds}
    dv = {n: domega[n] / p.control.k_p for n, p in config.vsc.items()}
    p_dc = dict.fromkeys(config.vsc, 0.0)
    for j, (e, i0) in enumerate(zip(g.dc_edges, i_star), start=na):
        p_dc[e.n] += v_pu[e.n] * x[j] + i0 * dv[e.n]
        p_dc[e.k] -= v_pu[e.k] * x[j] + i0 * dv[e.k]
    p_tg = {n: 0.0 - k * domega[n] for n, k in k_tg.items()}
    p_pv = {n: 0.0 - k * domega[n] for n, k in k_pv.items()}
    dp_ac = {**p_tg, **{n: p_pv[n] - p_dc[n] for n in config.vsc}}
    return SteadyState(domega[g.load_names[0]], dv, sum(p_tg.values(), 0.0),
                       sum(p_pv.values(), 0.0), dp_ac, kappa_tg, kappa_pv)


def nominal_dc_dispatch(config: SystemConfig) -> dict:
    """Nominal operating-point power flow per DC edge and the resulting AC
    injection of each VSC (p.u.): P_ac = -P_dc,export under lossless
    conversion.  A lossless edge joins equal setpoints and carries none."""
    flows = {}
    p_ac = {n: 0.0 for n in config.vsc}
    for e in config.graph.dc_edges:
        vn = config.graph.v_dc_star[e.n]
        vk = config.graph.v_dc_star[e.k]
        r = e.r_dc or math.inf
        p_nk = vn * (vn - vk) / r / config.base.S_base
        flows[(e.n, e.k)] = p_nk
        p_ac[e.n] -= p_nk
        p_ac[e.k] -= vk * (vk - vn) / r / config.base.S_base
    return {"edge_flows": flows, "p_ac": p_ac}


# --------------------------------------------------------------------------
# scenario presets
# --------------------------------------------------------------------------

def _load_preset(name: str) -> dict:
    text = resources.files("acdcdyn").joinpath(
        f"data/presets/{name}.json").read_text()
    return json.loads(text)


def _deep_set(data: dict, path: str, value, override: str = "",
              item: str = "item"):
    """Set the value at a dotted path.  Every segment but the last must
    exist and a list index must be a decimal below the list's length, or
    KeyError names the override, the segment and a list's length."""
    name = f"{override!r} ({path})" if override else repr(path)
    segs = path.split(".")
    d, where = data, "the scenario"
    for depth, seg in enumerate(segs, start=1):
        if isinstance(d, list):
            if not (seg.isdecimal() and int(seg) < len(d)):
                raise KeyError(f"override {name}: {where} has {len(d)} "
                               f"{item}s, no index {seg!r}")
            seg = int(seg)
        elif not isinstance(d, dict) or (depth < len(segs) and seg not in d):
            raise KeyError(f"override {name}: {where} has no {seg!r}")
        if depth == len(segs):
            d[seg] = value
        else:
            d, where = d[seg], ".".join(segs[:depth])


class _Block:
    """One scenario object, the block at dotted `path` ("" for the scenario
    itself), read as a context manager.  ``blk[key]`` and ``blk.get(key,
    default)`` record the key, and a missing ``blk[key]`` raises KeyError.
    A clean exit raises KeyError for every key neither read nor `unused`
    (a key that describes the scenario without entering the model).  A
    KeyError, TypeError or ValueError raised inside gets `path` before its
    message, keeping its type: once, from the innermost block, and not
    when the message already names a key under the path."""

    def __init__(self, data, path: str = "", unused: tuple = ()):
        self._where = path or "the scenario"
        if not isinstance(data, dict):
            raise TypeError(f"{self._where} must be an object, got {data!r}")
        self._data, self._path, self._read = data, path, set(unused)

    def __enter__(self):
        return self

    def __getitem__(self, key: str):
        if key not in self._data:
            raise KeyError(f"missing key {key!r}")
        self._read.add(key)
        return self._data[key]

    def get(self, key: str, default=None):
        self._read.add(key)
        return self._data.get(key, default)

    def array(self, key: str) -> list:
        """``self[key]``, a TypeError naming `key` unless it is a list."""
        value = self[key]
        if not isinstance(value, list):
            raise TypeError(f"{key} must be an array, got {value!r}")
        return value

    def __exit__(self, kind, exc, tb):
        if exc is None:
            unknown = sorted(set(self._data) - self._read)
            if unknown:
                error = KeyError(f"unknown keys {unknown} in {self._where}")
                error.block = self._path
                raise error
        elif (isinstance(exc, (KeyError, TypeError, ValueError))
              and self._path and not hasattr(exc, "block")):
            # args[0], not str(exc): a KeyError's str is the repr of its key
            message = exc.args[0] if exc.args else ""
            if not str(message).startswith(f"{self._path}."):
                exc.args = (f"{self._path}: {message}",)
            exc.block = self._path
        return False


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from the JSON-facing dictionary schema used by
    preset files and the command line.  The blocks read here, each through
    ``_Block``, are the schema: a missing key, a key not read, a block that
    is not an object and a record's error all name their block."""
    with _Block(data, unused=("scenario", "nominal")) as top:
        with _Block(top["base"], "base") as b:
            f_hz = check_real("base.f_base_hz", b["f_base_hz"], "positive")
            base = PerUnitBase(b["s_base_va"], b["v_base_ac_v"],
                               b["v_base_dc_v"], 2.0 * math.pi * f_hz)
        catalog = load_cable_catalog(top.get("cable_catalog"))

        sg_params, vsc_params, v_dc_star, virtual = {}, {}, {}, {}
        if top["sg"] is not None:
            with _Block(top["sg"], "sg", unused=("v_n_v", "n_r_hz")) as s:
                sg_params[s["node"]] = SgParams(
                    s["s_n_va"], s["p_max_w"], s["h_s"], s["k_tg"],
                    s["k_omega"], s["t1_s"], s["t2_s"])
        for i, v in enumerate(top.array("vscs")):
            with _Block(v, f"vscs.{i}",
                        unused=("s_rated_va", "v_rated_v")) as v:
                node = v["node"]
                if node in vsc_params:
                    raise ValueError(f"node {node!r} already has a VSC entry")
                k_pv = None
                if v.get("pv") is not None:
                    with _Block(v["pv"], f"vscs.{i}.pv", unused=(
                            "v_oc_v", "i_sc_a", "v_mpp_v", "i_mpp_a",
                            "v_op_v")) as pv:
                        pv_base = PerUnitBase(pv["s_base_va"],
                                              base.V_base_ac,
                                              pv["v_base_dc_v"],
                                              base.omega_base)
                        k_pv = convert_k_pv(check_real(
                            f"vscs.{i}.pv.k_pv_pu", pv["k_pv_pu"]),
                            pv_base, base)
                with _Block(v["control"], f"vscs.{i}.control") as c:
                    gains = c["k_p"], c["k_d"], c["tau_kd_s"]
                vsc_params[node] = VscParams(
                    v["c_dc_f"], GfmCtrlParams(*gains), k_pv,
                    v.get("c_extra_f", 0.0))
                v_dc_star[node] = v["v_dc_star_v"]
                virtual[node] = (v["l_virtual_h"],
                                 v.get("r_virtual_ohm", 0.0))

        ac_nodes = []
        for i, node in enumerate(top.array("ac_nodes")):
            if not (isinstance(node, (list, tuple)) and len(node) == 2):
                raise TypeError(f"ac_nodes.{i} must be a [name, kind] "
                                f"pair, got {node!r}")
            try:
                ac_nodes.append((node[0], NodeKind(node[1])))
            except ValueError as exc:
                raise ValueError(f"ac_nodes.{i}: {exc}") from None

        ac_edges = []
        for i, e in enumerate(top.array("ac_edges")):
            with _Block(e, f"ac_edges.{i}") as e:
                r = l = 0.0
                for j, seg in enumerate(e.array("segments")):
                    with _Block(seg, f"ac_edges.{i}.segments.{j}") as seg:
                        rr, ll = line_impedance(catalog, seg["cable"],
                                                seg["length_m"], f_hz=f_hz)
                    r += rr
                    l += ll
                l += check_real(f"ac_edges.{i}.l_extra_h",
                                e.get("l_extra_h", 0.0))
                kw = {}
                virt = e.get("virtual_at")
                if virt is not None:
                    if virt not in (e["n"], e["k"]) or virt not in virtual:
                        raise ValueError(f"virtual_at {virt!r} is not a VSC "
                                         "at an end of this edge")
                    side = "n" if virt == e["n"] else "k"
                    kw[f"l_virt_{side}"], kw[f"r_virt_{side}"] = \
                        virtual[virt]
                ac_edges.append(AcEdge(e["n"], e["k"], l, r, **kw))

        dc_edges = []
        for i, e in enumerate(top.array("dc_edges")):
            with _Block(e, f"dc_edges.{i}") as e:
                if e.get("cable") is None:
                    r, l = e["r_ohm"], e["l_h"]
                else:
                    r, l = line_impedance(catalog, e["cable"], e["length_m"],
                                          f_hz=f_hz,
                                          loop=e.get("loop", True))
                    r, l = e.get("r_ohm", r), e.get("l_h", l)
                dc_edges.append(DcEdge(e["n"], e["k"], l, r))

        bounds = top.get("ratio_bounds")
        if not isinstance(bounds, (dict, type(None))):
            raise TypeError(f"ratio_bounds must be an object, got {bounds!r}")
        graph = HybridGraph(tuple(ac_nodes), tuple(ac_edges),
                            tuple(dc_edges), base.V_base_ac, base.omega_base,
                            v_dc_star)
        return SystemConfig(graph, base, sg_params, vsc_params,
                            dict(bounds or {}))


#: Named gains: name -> (the list it reaches, what one item of that list
#: is called, the path it sets in every item).  ``k_p_<i>``, ``k_d_<i>``
#: and ``tau_kd_<i>`` set the i-th VSC only, counted from 1.  Each takes a
#: real number, except ``v_dc_star_pu``: a list (or tuple) of one p.u.
#: value per VSC.
NAMED_GAINS = {
    "k_p": ("vscs", "VSC", "control.k_p"),
    "k_d": ("vscs", "VSC", "control.k_d"),
    "tau_kd": ("vscs", "VSC", "control.tau_kd_s"),
    "v_dc_star_pu": ("vscs", "VSC", "v_dc_star_v"),
    "r_dc": ("dc_edges", "DC edge", "r_ohm"),
    "l_dc": ("dc_edges", "DC edge", "l_h"),
}


def _named_gain_paths(data: dict, key: str, value) -> tuple[str, list]:
    """The item name of a named gain's list and the (dotted path, value)
    pairs it sets.  KeyError for an empty list or an index, as written,
    that is not one of 1 to n, TypeError for a list that is not an array
    (as ``config_from_dict`` says it) or a value that is not a real
    number (a list of them for ``v_dc_star_pu``), ValueError for a
    ``v_dc_star_pu`` of another length than the VSCs."""
    name, index = key, None
    if key not in NAMED_GAINS:
        name, _, index = key.rpartition("_")
    if name == "v_dc_star_pu":
        if not (isinstance(value, (list, tuple))
                and all(map(is_real, value))):
            raise TypeError(f"override {key!r} takes a list of numbers, "
                            f"got {value!r}")
    elif not is_real(value):
        raise TypeError(f"override {key!r} takes a number, got {value!r}")
    items, item, path = NAMED_GAINS[name]
    listed = data.get(items)
    if listed is not None and not isinstance(listed, list):
        raise TypeError(f"{items} must be an array, got {listed!r}")
    n = len(listed or [])
    if n == 0:
        raise KeyError(f"override {key!r}: the scenario has no {item}")
    if index is not None:
        if not (index.isdecimal() and 1 <= int(index) <= n):
            raise KeyError(f"override {key!r}: {items} has {n} {item}s, "
                           f"counted from 1 to {n}; no {item} {index!r}")
        return item, [(f"{items}.{int(index) - 1}.{path}", value)]
    values = [value] * n
    if name == "v_dc_star_pu":
        if len(value) != n:
            raise ValueError(f"v_dc_star_pu gives {len(value)} values for "
                             f"{n} VSCs")
        values = [pu * data["base"]["v_base_dc_v"] for pu in value]
    return item, [(f"{items}.{i}.{path}", v) for i, v in enumerate(values)]


def resolve_scenario(scenario, overrides: dict | None = None) -> dict:
    """The dict that ``config_from_dict`` reads: a preset by name or a copy
    of an inline scenario, with ``overrides`` applied in order.  A key with
    a dot is a dotted path; a named gain (``NAMED_GAINS``, ``k_p_<i>``,
    ``k_d_<i>``, ``tau_kd_<i>``) expands to dotted paths; any other key is
    a top-level path.  ``_deep_set`` writes every path."""
    if isinstance(scenario, str):
        try:
            data = _load_preset(scenario)
        except FileNotFoundError as exc:
            raise ValueError(f"unknown preset {scenario!r}") from exc
    elif isinstance(scenario, dict):
        data = copy.deepcopy(scenario)
    else:
        raise TypeError("a scenario is a preset name or an object")
    for key, value in (overrides or {}).items():
        if key in NAMED_GAINS or ("." not in key and key.rpartition("_")[0]
                                  in ("k_p", "k_d", "tau_kd")):
            item, paths = _named_gain_paths(data, key, value)
            for path, v in paths:
                _deep_set(data, path, v, key, item)
        else:
            _deep_set(data, key, value)
    return data

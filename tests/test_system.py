import itertools
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import acdcdyn.system as system
from acdcdyn.lti import dc_gain, freq_response
from acdcdyn.network import (AcEdge, HybridGraph, NodeKind,
                             assemble_ac_laplacian, assemble_dc_laplacian,
                             kron_reduce, load_cable_catalog)
from acdcdyn.system import (ImproperController, NoDroop, _load_preset, build,
                            config_from_dict, nominal_dc_dispatch,
                            resolve_scenario, steady_state)
from acdcdyn.units import (GfmCtrlParams, PerUnitBase, SgParams, VscParams,
                           gfm_ctrl_tf, governor_droop_tf, sg_damping_tf,
                           sm_tf, vsc_dclink_tf)
from conftest import PERFBENCH, PRESETS, preset

#: Every numeric field of the device records, by record.
DEVICE_FIELDS = ([("sg", f.name) for f in fields(SgParams)]
                 + [("vsc", f.name) for f in fields(VscParams)
                    if f.name != "control"]
                 + [("control", f.name) for f in fields(GfmCtrlParams)])


class TestPresets:
    def test_islanded_channels(self):
        m = build(preset("islanded_pv"))
        assert "p_load_load1" in m.ss.input_names
        assert "n_vsc1" in m.ss.input_names
        for out in ("omega_sg", "omega_vsc1", "v_dc_vsc1", "p_ac_sg",
                    "p_ac_vsc1", "p_tg_sg", "p_pv_vsc1"):
            assert out in m.ss.output_names
        assert m.network_verdict == "holds_trivially"

    def test_lvdc_has_grid_input_and_dc_channels(self):
        m = build(preset("lvdc_async"))
        assert "omega_pg" in m.ss.input_names
        for out in ("omega_vsc2", "v_dc_vsc2", "p_dc_vsc1", "p_dc_vsc2"):
            assert out in m.ss.output_names

    def test_parallel_builds_stable(self):
        from acdcdyn import analysis
        m = build(preset("parallel_ac_dc"))
        assert analysis.stability(m).stable

    def test_preset_roundtrip_unchanged(self):
        data = _load_preset("islanded_pv")
        cfg1 = config_from_dict(data)
        cfg2 = preset("islanded_pv")
        assert cfg1.vsc["vsc1"].control.k_p == cfg2.vsc["vsc1"].control.k_p
        assert cfg1.graph.ac_edges == cfg2.graph.ac_edges


class TestOverrides:
    def test_global_gain_override(self):
        cfg = preset("lvdc_async", {"k_p": 0.05})
        assert cfg.vsc["vsc1"].control.k_p == 0.05
        assert cfg.vsc["vsc2"].control.k_p == 0.05

    def test_indexed_gain_override(self):
        cfg = preset("lvdc_async", {"k_d_1": 0.1})
        assert cfg.vsc["vsc1"].control.k_d == 0.1
        assert cfg.vsc["vsc2"].control.k_d == 0.001

    def test_setpoint_pu_override(self):
        cfg = preset("parallel_ac_dc", {"v_dc_star_pu": (0.9975, 1.0)})
        assert cfg.graph.v_dc_star["vsc1"] == pytest.approx(0.9975 * 740.0)

    def test_r_dc_override(self):
        cfg = preset("lvdc_async", {"r_dc": 0.0})
        assert cfg.graph.dc_edges[0].r_dc == 0.0

    def test_dotted_override(self):
        cfg = preset("lvdc_async", {"vscs.0.c_dc_f": 0.0062})
        assert cfg.vsc["vsc1"].C_dc == 0.0062

    @pytest.mark.parametrize("key", ["k_p", "k_d", "tau_kd", "k_d_1",
                                     "v_dc_star_pu"])
    def test_named_override_without_a_vsc(self, key):
        no_vsc = {**_load_preset("islanded_pv"), "vscs": []}
        with pytest.raises(KeyError, match="VSC"):
            resolve_scenario(no_vsc, {key: [] if key == "v_dc_star_pu"
                                      else 0.01})

    @pytest.mark.parametrize("value", [(1.01,), (1.01, 1.0, 0.99)])
    def test_setpoint_pu_length_mismatch(self, value):
        with pytest.raises(ValueError, match="2 VSCs"):
            preset("lvdc_async", {"v_dc_star_pu": value})

    @pytest.mark.parametrize("scenario, key, n", [
        ("islanded_pv", "k_p_0", 1), ("lvdc_async", "tau_kd_3", 2),
        ("lvdc_async", "k_d_-1", 2), ("lvdc_async", "k_p_x", 2)])
    def test_indexed_gain_names_the_index_as_written(self, scenario, key, n):
        with pytest.raises(KeyError) as info:
            resolve_scenario(scenario, {key: 0.01})
        index = key.rpartition("_")[2]
        assert info.value.args[0] == (
            f"override {key!r}: vscs has {n} VSCs, counted from 1 to {n}; "
            f"no VSC {index!r}")

    @pytest.mark.parametrize("overrides", [
        {"vscs": "ab", "k_p": 0.1}, {"vscs": {"a": 1}, "k_p_1": 0.1},
        {"dc_edges": 0, "r_dc": 0.1}],
        ids=["string-global", "object-indexed", "zero-dc-edges"])
    def test_named_gain_on_a_list_that_is_no_array(self, overrides):
        # the override says what config_from_dict says of the list
        items = next(iter(overrides))
        data = _load_preset("lvdc_async")
        data[items] = overrides[items]
        with pytest.raises(TypeError) as expected:
            config_from_dict(data)
        with pytest.raises(TypeError) as got:
            resolve_scenario("lvdc_async", overrides)
        assert str(got.value) == str(expected.value) == (
            f"{items} must be an array, got {overrides[items]!r}")

    def test_resolve_unknown_named_gain(self):
        # a key that is no named gain is a top-level path, which
        # config_from_dict names as a key it does not read
        data = resolve_scenario("lvdc_async", {"bogus": 1})
        with pytest.raises(KeyError) as info:
            config_from_dict(data)
        assert info.value.args[0] == "unknown keys ['bogus'] in the scenario"

    def test_top_level_key_the_preset_lacks(self):
        # islanded_pv publishes no ratio bound; an override can add one
        data = resolve_scenario("islanded_pv",
                                {"ratio_bounds": {"vsc1": 0.3}})
        assert config_from_dict(data).ratio_bounds == {"vsc1": 0.3}

    def test_resolve_copies_inline_scenario(self):
        inline = _load_preset("lvdc_async")
        before = json.dumps(inline, sort_keys=True)
        data = resolve_scenario(inline, {"k_d": 0.005,
                                         "vscs.1.c_dc_f": 0.0062})
        assert json.dumps(inline, sort_keys=True) == before
        assert [v["control"]["k_d"] for v in data["vscs"]] == [0.005, 0.005]
        assert data["vscs"][1]["c_dc_f"] == 0.0062

    def test_resolve_rejects_unknown_preset_and_type(self):
        with pytest.raises(ValueError):
            resolve_scenario("bogus")
        with pytest.raises(TypeError):
            resolve_scenario(["islanded_pv"])

    @pytest.mark.parametrize("path", ["base.s_base_vaa",
                                      "vscs.0.control.kp"])
    def test_unknown_base_or_control_key(self, path):
        with pytest.raises(KeyError) as info:
            preset("lvdc_async", {path: 1.0})
        assert info.value.args[0].startswith("unknown keys")

    @pytest.mark.parametrize("scenario, path, block", [
        ("lvdc_async", "ratio_bound", "the scenario"),
        ("lvdc_async", "sg.k_tgg", "sg"),
        ("lvdc_async", "vscs.0.c_dcf", "vscs.0"),
        ("islanded_pv", "vscs.0.pv.k_pv", "vscs.0.pv"),
        ("lvdc_async", "ac_edges.2.l_extra", "ac_edges.2"),
        ("lvdc_async", "ac_edges.2.segments.1.length",
         "ac_edges.2.segments.1"),
        ("lvdc_async", "dc_edges.0.r_dc", "dc_edges.0"),
    ])
    def test_unknown_key_in_any_block(self, scenario, path, block):
        data = resolve_scenario(scenario)
        system._deep_set(data, path, 1.0)
        key = path.rsplit(".", 1)[-1]
        with pytest.raises(KeyError) as info:
            config_from_dict(data)
        assert info.value.args[0] == f"unknown keys ['{key}'] in {block}"


def _preset_keys():
    """(preset, block path, key) of every key of every object in the
    three presets; the block path of a top-level key is ""."""
    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                yield path, key
                yield from walk(value, f"{path}.{key}".lstrip("."))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from walk(value, f"{path}.{i}")

    return [(name, path, key) for name in PRESETS
            for path, key in walk(_load_preset(name), "")]


class TestSchema:
    def test_presets_and_feeders_read_every_key(self, monkeypatch):
        # config_from_dict raises on a key it neither reads nor declares
        # unused, so each of these loads only if all its keys are known
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from feeder import FeederStream

        cfgs = [_load_preset(name) for name in PRESETS]
        for seed in (0, 1):
            cfgs += itertools.islice(FeederStream(seed), 72)
        for data in cfgs:
            config_from_dict(data)

    @pytest.mark.parametrize("name, path, key", _preset_keys(),
                             ids=lambda x: x or "-")
    def test_deleting_a_key_loads_or_names_it(self, name, path, key):
        data = _load_preset(name)
        block = data
        for seg in filter(None, path.split(".")):
            block = block[int(seg) if isinstance(block, list) else seg]
        del block[key]
        try:
            config_from_dict(data)
        except KeyError as exc:
            # a DC edge without a cable needs its resistance and inductance
            if path.startswith("dc_edges.") and key == "cable":
                key = "r_ohm"
            assert exc.args[0] == (f"{path}: " if path else "") \
                + f"missing key {key!r}"

    @pytest.mark.parametrize("path, value, message", [
        ("base", 5, "base must be an object, got 5"),
        ("sg", [1], "sg must be an object, got [1]"),
        ("vscs.0", "vsc1", "vscs.0 must be an object, got 'vsc1'"),
        ("vscs.0.control", 0.1, "vscs.0.control must be an object, got 0.1"),
        ("vscs.0.pv", True, "vscs.0.pv must be an object, got True"),
        ("ac_edges.0.segments.0", None,
         "ac_edges.0.segments.0 must be an object, got None"),
        ("ac_nodes.0", ["sg"],
         "ac_nodes.0 must be a [name, kind] pair, got ['sg']"),
        ("ac_nodes.2", "load1",
         "ac_nodes.2 must be a [name, kind] pair, got 'load1'"),
        # a scenario list that is no array is not iterated, and a falsy
        # block that is not null is not read as absent
        ("ac_nodes", {"sg": "sm"},
         "ac_nodes must be an array, got {'sg': 'sm'}"),
        ("ac_edges", 5, "ac_edges must be an array, got 5"),
        ("dc_edges", None, "dc_edges must be an array, got None"),
        ("vscs", "ab", "vscs must be an array, got 'ab'"),
        ("ac_edges.0.segments", {"cable": "NAYY 4x240"},
         "ac_edges.0: segments must be an array, got {'cable': "
         "'NAYY 4x240'}"),
        ("sg", False, "sg must be an object, got False"),
        ("vscs.0.pv", False, "vscs.0.pv must be an object, got False"),
        ("vscs.0.pv", 0, "vscs.0.pv must be an object, got 0"),
        ("ratio_bounds", 0, "ratio_bounds must be an object, got 0"),
        ("ratio_bounds", "x", "ratio_bounds must be an object, got 'x'"),
        ("ratio_bounds", [], "ratio_bounds must be an object, got []"),
    ])
    def test_malformed_block_is_named(self, path, value, message):
        data = resolve_scenario("islanded_pv", {path: value})
        with pytest.raises(TypeError) as info:
            config_from_dict(data)
        assert info.value.args[0] == message

    @pytest.mark.parametrize("path, key", [("sg", "s_n_va"),
                                           ("vscs.0.pv", "s_base_va")])
    def test_empty_block_names_its_first_missing_key(self, path, key):
        # an empty block is not read as an absent one
        data = resolve_scenario("islanded_pv", {path: {}})
        with pytest.raises(KeyError) as info:
            config_from_dict(data)
        assert info.value.args[0] == f"{path}: missing key {key!r}"

    def test_null_ratio_bounds_is_absent(self):
        assert preset("lvdc_async", {"ratio_bounds": None}).ratio_bounds \
            == {}

    def test_inner_error_is_named_once(self):
        # an unknown key of a nested block passes its outer block unchanged
        data = resolve_scenario("islanded_pv", {"vscs.0.control.kp": 1.0})
        with pytest.raises(KeyError) as info:
            config_from_dict(data)
        assert info.value.args[0] == "unknown keys ['kp'] in vscs.0.control"


class TestConfigSurface:
    def test_graph_setpoint_drives_the_capacitor(self):
        # the DC setpoint has one home: replacing it in the graph gives the
        # same model as editing it in the preset
        cfg = preset("parallel_ac_dc")
        v_dc_star = dict(cfg.graph.v_dc_star, vsc1=760.0)
        via_graph = build(replace(
            cfg, graph=replace(cfg.graph, v_dc_star=v_dc_star))).ss
        data = _load_preset("parallel_ac_dc")
        data["vscs"][0]["v_dc_star_v"] = 760.0
        via_preset = build(config_from_dict(data)).ss
        for name in ("A", "B", "C", "D"):
            assert np.array_equal(getattr(via_graph, name),
                                  getattr(via_preset, name))
        assert via_graph.output_names == via_preset.output_names

    def test_vsc_keys_must_match_vsc_nodes(self):
        cfg = preset("lvdc_async")
        missing = {n: p for n, p in cfg.vsc.items() if n != "vsc2"}
        with pytest.raises(ValueError):
            replace(cfg, vsc=missing)
        with pytest.raises(ValueError):
            replace(cfg, vsc=dict(cfg.vsc, load1=cfg.vsc["vsc1"]))

    def test_second_vsc_entry_for_a_node_rejected(self):
        # the later entry's gains replaced the earlier ones without a word
        data = _load_preset("lvdc_async")
        extra = json.loads(json.dumps(data["vscs"][0]))
        extra["control"]["k_p"] = 0.5
        data["vscs"].append(extra)
        with pytest.raises(ValueError) as info:
            config_from_dict(data)
        assert info.value.args[0] == \
            "vscs.2: node 'vsc1' already has a VSC entry"

    def test_sg_keys_must_match_sm_nodes(self):
        cfg = preset("islanded_pv")
        with pytest.raises(ValueError):
            replace(cfg, sg={})

    def test_pv_at_zero_droop_keeps_its_channel(self):
        cfg = preset("islanded_pv", {"vscs.0.pv.k_pv_pu": 0.0})
        assert cfg.vsc["vsc1"].k_pv == 0.0
        assert "p_pv_vsc1" in build(cfg).ss.output_names
        no_pv = preset("islanded_pv", {"vscs.0.pv": None})
        assert no_pv.vsc["vsc1"].k_pv is None
        assert "p_pv_vsc1" not in build(no_pv).ss.output_names

    def test_nonpositive_setpoint_rejected(self):
        with pytest.raises(ValueError):
            preset("lvdc_async", {"vscs.0.v_dc_star_v": 0.0})

    @pytest.mark.parametrize("record,name", DEVICE_FIELDS)
    def test_every_device_field_reaches_the_model(self, record, name):
        # a field that build never reads is a parameter without an effect
        cfg = preset("islanded_pv")
        (sg_node, sg), = cfg.sg.items()
        (vsc_node, vsc), = cfg.vsc.items()
        old = {"sg": sg, "vsc": vsc, "control": vsc.control}[record]
        value = getattr(old, name)
        new = replace(old, **{name: value / 2 if value else 1e-3})
        if record == "sg":
            changed = replace(cfg, sg={sg_node: new})
        elif record == "vsc":
            changed = replace(cfg, vsc={vsc_node: new})
        else:
            changed = replace(cfg, vsc={vsc_node: replace(vsc, control=new)})
        a, b = build(cfg).ss, build(changed).ss
        assert not all(np.array_equal(getattr(a, m), getattr(b, m))
                       for m in "ABCD")

    def test_custom_cable_catalog(self, tmp_path):
        # a cable_catalog file replaces the packaged catalog: a copy of it
        # gives the same edges, and one cable's resistance doubled doubles
        # that of the one edge made of it alone
        cables = load_cable_catalog()
        path = tmp_path / "cables.json"
        path.write_text(json.dumps({"cables": cables}))
        edges = preset("islanded_pv").graph.ac_edges
        assert preset("islanded_pv",
                      {"cable_catalog": str(path)}).graph.ac_edges == edges
        entry = cables["NAYY 4x35"]
        entry["r_ohm_per_km"] *= 2.0
        path.write_text(json.dumps({"cables": cables}))
        changed = preset("islanded_pv", {"cable_catalog": str(path)})
        assert [(e.n, e.k, e.l, e.r) for e in changed.graph.ac_edges] == [
            (e.n, e.k, e.l, 2.0 * e.r if e.k == "vsc1" else e.r)
            for e in edges]

    def test_virtual_impedance_lands_on_the_vsc_side(self):
        cfg = preset("parallel_ac_dc", {"vscs.1.l_virtual_h": 0.005})
        virt = {(e.n, e.k): (e.l_virt_n, e.l_virt_k)
                for e in cfg.graph.ac_edges}
        assert virt == {("sg", "load1"): (0.0, 0.0),
                        ("load1", "vsc1"): (0.0, 0.0023),
                        ("vsc2", "grid"): (0.005, 0.0),
                        ("load1", "vsc2"): (0.0, 0.005)}


def _records():
    """One valid instance of each record that checks its numbers, from
    the ``lvdc_async`` preset."""
    cfg = preset("lvdc_async")
    vsc = cfg.vsc["vsc1"]
    return {"PerUnitBase": cfg.base, "SgParams": cfg.sg["sg"],
            "GfmCtrlParams": vsc.control, "VscParams": vsc,
            "AcEdge": cfg.graph.ac_edges[0], "DcEdge": cfg.graph.dc_edges[0],
            "HybridGraph": cfg.graph, "SystemConfig": cfg}


#: Every (record, field) pair that the number rule covers.  A dict field
#: is checked entry by entry.
CHECKED_FIELDS = (
    [("PerUnitBase", f) for f in ("S_base", "V_base_ac", "V_base_dc",
                                  "omega_base")]
    + [("SgParams", f.name) for f in fields(SgParams)]
    + [("GfmCtrlParams", f.name) for f in fields(GfmCtrlParams)]
    + [("VscParams", f) for f in ("C_dc", "k_pv", "c_extra")]
    + [("AcEdge", f) for f in ("l", "r", "l_virt_n", "l_virt_k", "r_virt_n",
                               "r_virt_k")]
    + [("DcEdge", "l_dc"), ("DcEdge", "r_dc"),
       ("HybridGraph", "V_ac_star"), ("HybridGraph", "omega_star"),
       ("HybridGraph", "v_dc_star"), ("SystemConfig", "ratio_bounds")])


def _with(record, field, value):
    """`record` with `field` set to `value`; a dict field gets `value` at
    its first entry."""
    old = getattr(record, field)
    if isinstance(old, dict):
        value = {**old, next(iter(old)): value}
    return replace(record, **{field: value})


class TestNumberRule:
    @pytest.mark.parametrize("value, error", [
        (math.nan, ValueError), (math.inf, ValueError),
        (-math.inf, ValueError), (10**400, ValueError), (True, TypeError),
        ("1", TypeError), ([1], TypeError)],
        ids=["nan", "inf", "-inf", "huge-int", "bool", "str", "list"])
    @pytest.mark.parametrize("record, field", CHECKED_FIELDS,
                             ids=[".".join(p) for p in CHECKED_FIELDS])
    def test_bad_value_names_the_field(self, record, field, value, error):
        with pytest.raises(error) as info:
            _with(_records()[record], field, value)
        message = str(info.value)
        assert message.startswith(f"{record}.{field}")
        assert message.endswith(f"got {value!r}")

    @pytest.mark.parametrize("value, error", [(True, TypeError),
                                              (math.nan, ValueError)])
    @pytest.mark.parametrize("path", ["base.f_base_hz", "vscs.0.pv.k_pv_pu",
                                      "ac_edges.0.l_extra_h"])
    def test_scenario_number_computed_on_is_named(self, path, value, error):
        # these are scaled or summed before any record sees them
        data = resolve_scenario("islanded_pv", {path: value})
        with pytest.raises(error, match=rf"^{path} must be"):
            config_from_dict(data)

    def test_values_that_still_pass(self):
        r = _records()
        for record, field in CHECKED_FIELDS:
            old = getattr(r[record], field)
            old = next(iter(old.values())) if isinstance(old, dict) else old
            for cast in (np.float64, np.float32):
                if old is not None:
                    _with(r[record], field, cast(old))
        ctrl = GfmCtrlParams(1, 0, np.int64(0))
        VscParams(1, ctrl, k_pv=None, c_extra=0)
        PerUnitBase(50000, 400, 650, np.int64(314))
        _with(r["SgParams"], "k_tg", 0)
        with pytest.raises(ImproperController):
            build(preset("lvdc_async", {"tau_kd": 0}))

    def test_nonnegative_fields_take_zero_positive_ones_do_not(self):
        r = _records()
        nonnegative = {("GfmCtrlParams", "k_d"), ("GfmCtrlParams", "tau_kd"),
                       ("VscParams", "c_extra"), ("AcEdge", "r"),
                       ("AcEdge", "l_virt_n"), ("AcEdge", "l_virt_k"),
                       ("AcEdge", "r_virt_n"), ("AcEdge", "r_virt_k"),
                       ("DcEdge", "r_dc")}
        real = {("SgParams", "k_tg"), ("SgParams", "k_omega"),
                ("VscParams", "k_pv")}
        for record, field in CHECKED_FIELDS:
            if (record, field) in nonnegative | real:
                _with(r[record], field, 0.0)
            else:
                with pytest.raises(ValueError, match="finite and positive"):
                    _with(r[record], field, 0.0)
            if (record, field) in real:
                _with(r[record], field, -1.0)
            else:
                with pytest.raises(ValueError):
                    _with(r[record], field, -1.0)


class TestBuildErrors:
    def test_improper_controller_rejected(self):
        cfg = preset("islanded_pv", {"tau_kd": 0.0})
        with pytest.raises(ImproperController):
            build(cfg)


def node_balance_response(cfg, s: complex, input_name: str) -> dict:
    """Every output of ``build(cfg)`` at s for a unit step at its input
    `input_name` (``p_load_<load>``, ``omega_pg`` or ``n_<vsc>``), from the
    device TFs and the evaluated network alone: the power balance of each
    conversion node and each VSC's DC link, solved for the frequency of
    each conversion node (the infinite bus's is ``omega_pg``) and the DC
    voltage of each VSC."""
    g, base = cfg.graph, cfg.base
    conv, vscs, kinds = g.conv_names, g.dc_names, dict(g.ac_nodes)
    G_conv, G_load = kron_reduce(assemble_ac_laplacian(g, s), len(conv))
    # p_ac (p.u.) per conversion-node frequency, through theta = w_b/s omega
    P = G_conv / base.S_base * (base.omega_base / s)
    p_load = np.zeros(len(conv), dtype=complex)
    if input_name.startswith("p_load_"):
        p_load = G_load[:, g.load_names.index(input_name[len("p_load_"):])]
    nw, nv = len(conv), len(vscs)
    K = np.zeros((nv, nv), dtype=complex)
    if g.dc_edges:
        L_dc, loss = assemble_dc_laplacian(g, s)
        K = base.V_base_dc / base.S_base * (L_dc + np.diag(loss))
    M = np.zeros((nw + nv, nw + nv), dtype=complex)
    b = np.zeros(nw + nv, dtype=complex)
    for i, n in enumerate(conv):
        if kinds[n] is NodeKind.INFINITE_BUS:
            M[i, i], b[i] = 1.0, float(input_name == "omega_pg")
        elif kinds[n] is NodeKind.SM:
            sg = cfg.sg[n]
            M[i, :nw] = P[i]
            M[i, i] += (1.0 / sm_tf(sg, base)(s)
                        - governor_droop_tf(sg, base)(s)
                        - sg_damping_tf(sg, base)(s))
            b[i] = -p_load[i]
        else:
            # omega = C(s) (v + n), and the DC link balances the VSC's power
            k, vsc = nw + vscs.index(n), cfg.vsc[n]
            ctrl = gfm_ctrl_tf(vsc.control)(s)
            M[i, i], M[i, k] = 1.0, -ctrl
            b[i] = ctrl * float(input_name == f"n_{n}")
            M[k, :nw], M[k, nw:] = P[i], K[k - nw]
            M[k, k] += (1.0 / vsc_dclink_tf(vsc, g.v_dc_star[n], base)(s)
                        + (vsc.k_pv or 0.0))
            b[k] = -p_load[i]
    x = np.linalg.solve(M, b)
    omega, v = x[:nw], x[nw:]
    p_ac, p_dc = P @ omega + p_load, K @ v
    out = {}
    for i, n in enumerate(conv):
        if kinds[n] is NodeKind.SM:
            out[f"omega_{n}"], out[f"p_ac_{n}"] = omega[i], p_ac[i]
            out[f"p_tg_{n}"] = governor_droop_tf(cfg.sg[n], base)(s) * omega[i]
        elif kinds[n] is NodeKind.VSC:
            k, k_pv = vscs.index(n), cfg.vsc[n].k_pv
            out[f"omega_{n}"], out[f"p_ac_{n}"] = omega[i], p_ac[i]
            out[f"v_dc_{n}"] = v[k]
            if g.dc_edges:
                out[f"p_dc_{n}"] = p_dc[k]
            if k_pv is not None:
                out[f"p_pv_{n}"] = -k_pv * v[k]
    return out


class TestFrequencyOracle:
    @pytest.mark.parametrize("name, bound", [
        ("islanded_pv", 1e-10), ("lvdc_async", 1e-10),
        # the entrywise realization of the unequal-setpoint DC network
        # misses by 2.4e-6 (omega_pg to p_ac_vsc1) and 1.4e-6 (p_load_load1
        # to p_dc_vsc2 near 18.7 rad/s)
        ("parallel_ac_dc", 1e-5)])
    def test_closed_loop_matches_node_balance(self, name, bound):
        # every channel of the realized closed loop against the node
        # balance solved point by point, relative to the channel's peak
        cfg = preset(name)
        ss = build(cfg).ss
        w = np.logspace(-1, 4, 12)
        for inp in ss.input_names:
            ref = [node_balance_response(cfg, 1j * wk, inp) for wk in w]
            assert set(ref[0]) == set(ss.output_names)
            for out in ss.output_names:
                h_ref = np.array([r[out] for r in ref])
                h = freq_response(ss, inp, out, w).values
                assert np.max(np.abs(h - h_ref)) <= \
                    bound * np.max(np.abs(h_ref)), (inp, out)

    @pytest.mark.parametrize("name, rate, floor", [
        # |Re H(i eps) - G| / (1 + |G|) reads at most 0.019, 0.025 and 5.5
        # times eps^2; parallel_ac_dc's omega_pg column stops at 5.4e-7,
        # the realization's error there, and its n_vsc columns at 1.3e-8
        ("islanded_pv", 0.03, 1e-12), ("lvdc_async", 0.03, 1e-12),
        ("parallel_ac_dc", 8.0, 1e-6)])
    def test_dc_gain_is_the_limit_at_zero(self, name, rate, floor):
        # each column of dc_gain is lim H(i eps) of the node balance: H is
        # real on the real axis, so its real part meets G as eps^2 (and
        # its imaginary part vanishes as eps)
        cfg = preset(name)
        ss = build(cfg).ss
        G = dc_gain(ss)
        for j, inp in enumerate(ss.input_names):
            scale = 1.0 + np.max(np.abs(G[:, j]))
            for eps in (1e-2, 1e-3, 1e-4):
                ref = node_balance_response(cfg, 1j * eps, inp)
                H = np.array([ref[out] for out in ss.output_names])
                assert np.max(np.abs(H.real - G[:, j])) <= \
                    (rate * eps**2 + floor) * scale, (inp, eps)


def steady_state_gap(cfg):
    """Largest gap between `steady_state` and the closed-loop `dc_gain`
    over every quantity the steady state reports, for a 1 p.u. step on the
    first load."""
    m = build(cfg)
    load = cfg.graph.load_names[0]
    G = dc_gain(m.ss)[:, m.ss.input_names.index(f"p_load_{load}")]
    gain = dict(zip(m.ss.output_names, G))
    st = steady_state(cfg, 1.0)
    area, = (c for c in cfg.graph.ac_components() if load in c)
    assert set(st.dp_ac) == {n[5:] for n in gain if n.startswith("p_ac_")}
    pairs = [(gain[f"omega_{n}"], st.domega) for n in area
             if f"omega_{n}" in gain]
    pairs += [(gain[f"v_dc_{n}"], v) for n, v in st.dv_dc.items()]
    pairs += [(gain[f"p_ac_{n}"], p) for n, p in st.dp_ac.items()]
    pairs += [(sum(gain[f"p_tg_{n}"] for n in cfg.sg), st.dp_tg),
              (sum(gain.get(f"p_pv_{n}", 0.0) for n in cfg.vsc), st.dp_pv)]
    return max(abs(a - b) for a, b in pairs)


class TestSteadyState:
    def test_matches_dc_gain(self):
        cfg = preset("islanded_pv")
        m = build(cfg)
        st = steady_state(cfg, 1.0)
        G = dc_gain(m.ss)
        j = m.ss.input_names.index("p_load_load1")
        o = {n: i for i, n in enumerate(m.ss.output_names)}
        assert G[o["omega_sg"], j] == pytest.approx(st.domega, abs=1e-9)
        assert G[o["omega_vsc1"], j] == pytest.approx(st.domega, abs=1e-9)
        assert G[o["v_dc_vsc1"], j] == pytest.approx(st.dv_dc["vsc1"],
                                                     abs=1e-9)
        assert G[o["p_tg_sg"], j] == pytest.approx(st.dp_tg, abs=1e-9)
        assert G[o["p_pv_vsc1"], j] == pytest.approx(st.dp_pv, abs=1e-9)
        assert steady_state_gap(cfg) <= 1e-9

    def test_shares_sum_to_load(self):
        st = steady_state(preset("islanded_pv"), 0.05)
        assert st.dp_tg + st.dp_pv == pytest.approx(0.05)

    def test_infinite_bus_pins_frequency(self):
        # one AC area, and it holds the infinite bus
        st = steady_state(preset("parallel_ac_dc"), 0.05)
        assert st.domega == 0.0
        assert all(v == 0.0 for v in st.dv_dc.values())
        assert all(v == 0.0 for v in st.dp_ac.values())

    @pytest.mark.parametrize("scenario, overrides", [
        ("lvdc_async", {}),
        ("lvdc_async", {"r_dc": 0.0}),
        ("lvdc_async", {"v_dc_star_pu": (0.9975, 1.0)}),
        ("parallel_ac_dc", {}),
        ("parallel_ac_dc", {"v_dc_star_pu": (0.9975, 1.0)}),
    ], ids=["lvdc", "lvdc-lossless", "lvdc-unequal", "parallel",
            "parallel-unequal"])
    def test_dc_coupled_matches_dc_gain(self, scenario, overrides):
        # the SG area of lvdc_async reaches the grid only through the DC
        # link; a lossless link pins its frequency as well
        assert steady_state_gap(preset(scenario, overrides)) <= 1e-7

    def test_lossless_link_between_unequal_setpoints_raises(self):
        with pytest.raises(ValueError, match="lossless"):
            steady_state(preset("lvdc_async", {
                "r_dc": 0.0, "v_dc_star_pu": (0.9975, 1.0)}), 0.05)

    def test_needs_a_load_node(self):
        cfg = preset("islanded_pv")
        g = cfg.graph
        graph = HybridGraph(
            (("sg", NodeKind.SM), ("vsc1", NodeKind.VSC)),
            (AcEdge("sg", "vsc1", 1e-5, 1e-3),), (), g.V_ac_star,
            g.omega_star, g.v_dc_star)
        with pytest.raises(ValueError, match="load node"):
            steady_state(replace(cfg, graph=graph), 0.05)

    @pytest.mark.parametrize("dp", [math.nan, math.inf, -math.inf])
    def test_non_finite_load_step_raises(self, dp):
        with pytest.raises(ValueError, match="dp_load must be finite"):
            steady_state(preset("islanded_pv"), dp)

    def test_no_droop_raises(self):
        cfg = preset("islanded_pv", {"vscs.0.pv": None,
                                              "sg.k_tg": 0.0})
        with pytest.raises(NoDroop):
            steady_state(cfg, 0.05)


class TestNominalDispatch:
    def test_sign_flip_with_setpoints(self):
        hi = nominal_dc_dispatch(preset("parallel_ac_dc"))
        lo = nominal_dc_dispatch(
            preset("parallel_ac_dc", {"v_dc_star_pu": (0.9975, 1.0)}))
        assert hi["p_ac"]["vsc1"] < 0 < lo["p_ac"]["vsc1"]

    def test_lossless_rejected(self):
        with pytest.raises(ValueError):
            nominal_dc_dispatch(preset("parallel_ac_dc", {"r_dc": 0.0}))

    def test_equal_setpoints_zero_flow(self):
        d = nominal_dc_dispatch(preset("lvdc_async"))
        assert all(abs(f) < 1e-12 for f in d["edge_flows"].values())

    def test_lossless_link_zero_flow(self):
        # the graph admits a lossless link only between equal setpoints;
        # the dispatch refused it anyway
        d = nominal_dc_dispatch(preset("lvdc_async", {"r_dc": 0.0}))
        assert d == {"edge_flows": {("vsc1", "vsc2"): 0.0},
                     "p_ac": {"vsc1": 0.0, "vsc2": 0.0}}

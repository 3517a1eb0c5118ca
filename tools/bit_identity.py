"""Record the bits that acdcdyn produces, and compare two records.

    python3 tools/bit_identity.py record TREE OUT.json
    python3 tools/bit_identity.py compare A.json B.json

``record`` imports ``acdcdyn`` from ``TREE/src`` (a checkout, or a
``git archive`` of one) and writes one flat JSON object, key -> value:

* ``build/<preset>`` and ``build/feeder<seed>/<i>``: the sha256 of
  ``build``'s A, B, C, D (dtype, shape and bytes), its input and output
  names and its Assumption-1 verdict, or the class name of the exception
  that ``config_from_dict`` or ``build`` raised.  The configs are the three
  presets and ``FeederStream(0)`` and ``FeederStream(1)`` configs 0-71, from
  the ``perfbench/feeder.py`` next to this tool, so two records always see
  the same inputs.
* ``network/<preset>`` and ``network/feeder<seed>/<i>``: for the same
  configs, the sha256 of the numerator and denominator coefficients of
  ``kron_reduce_symbolic(ac_laplacian_tfs(g))`` and of
  ``dc_laplacian_tfs(g)``, or the class name of the exception raised on
  the way.  A change to the network algebra shows here before ``build``.
* ``analysis/<preset>/...`` and ``analysis/feeder<seed>/<i>/...``: for
  each of those models that built, ``stable``, the verdict of
  ``analysis.stability``; ``structural``, the number of poles that
  ``lti.poles`` tags structural (or, under ``stable`` alone, the class
  name of the exception of either); and ``dc_gain``, the sha256 of
  ``lti.dc_gain``'s array or the class name of its exception.  These read the spectrum, so a change to the
  eigenvalues shows here without comparing eigenvalues bit for bit.
* ``assumption1/<preset>``, ``assumption1/feeder<seed>/<i>`` and
  ``assumption1/<graph>``: the verdict and reason of
  ``network.check_assumption1`` and the sha256 of its roots (or the
  class name of the exception raised on the way), for the same configs
  and for the graphs of ``REGRESSIONS``.
* ``cli/<run>/<preset>/exit`` and ``cli/<run>/<preset>/<file>``: the exit
  code of each run of ``CLI_RUNS`` on each preset, and the sha256 of every
  file the run writes (CSV, manifest, error record).  A run is named after
  its command: ``step`` runs 80 s at 1 ms, ``sweep`` sweeps ``k_d_1``, and
  ``bode-band`` is ``bode`` with the band and point count given, so that
  both the defaults and the options reach ``analysis.bode``.  The runs
  ``step-default`` (the 10 s default), ``step-amplitude`` (-2),
  ``steady-w`` (the load step in W) and ``spectrum-times`` (20 s at 2 ms)
  reach the other defaults and options of ``cli.OPTIONS``.
* ``peak/<config>/<band>``: for each config of ``PEAK_CONFIGS`` (every
  preset, as it is and with ``k_d`` 0.005 or ``k_p`` 0.05), an object of
  ``analysis.resonance_peak`` of every channel, ``"<input>><output>"`` ->
  [f_hz, mag_db] or the class name of the exception, at each band of
  ``PEAK_BANDS``: the default of ``analysis.bode`` and 0.05-500 Hz at 25
  points.  The peak rule shows here; ``build`` evaluates no transfer
  function and no default-band CLI run changes with it.
* ``resolve/<scenario> <overrides>``: the sha256 of
  ``json.dumps(resolve_scenario(scenario, overrides), sort_keys=True)``
  for the overrides that the tests and the benchmark use.
* ``config/<case>``: ``loads``, or the class and message of the exception
  that ``config_from_dict(resolve_scenario(...))`` raises, for each of
  ``MALFORMED``: a preset with a block or a record key deleted, an
  unknown key in each block, a block that is not an object, a
  ``virtual_at`` that names no VSC end of its edge, a second VSC entry
  for a node, an AC node listed twice, a lossless DC edge between
  unequal setpoints, an AC and a DC edge from a node to itself, a
  ``cable_catalog`` that is not a path or names a file that is missing,
  not JSON, not an object with a ``cables`` object, or has an entry
  without ``r_ohm_per_km`` or with a string for it, a scenario list
  that is not an array, an ``sg``, ``pv`` or ``ratio_bounds`` that is
  falsy but not null, and an indexed gain outside 1..n.  The catalog files
  are written from ``CATALOG_FILES`` into a temporary working directory,
  so the paths in the messages are the same in every record.  Input-layer
  changes show here as the messages they change.

``compare`` prints every key whose value differs or that only one record
has (of an object, each entry that differs), and exits 1 if there is
any.  Recording takes about 45 s and 200 MB.  Nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PRESETS = ("islanded_pv", "lvdc_async", "parallel_ac_dc")
FEEDERS = 72
CHANNEL = {"input": "p_load_load1", "output": "omega_vsc1"}
#: run -> (command, options), run on every preset.
CLI_RUNS = {
    "poles": ("poles", {}),
    "bode": ("bode", CHANNEL),
    "bode-band": ("bode", {**CHANNEL, "f_min_hz": 0.05, "f_max_hz": 500.0,
                           "points": 25}),
    "step": ("step", {"input": "p_load_load1", "t_end_s": 80.0,
                      "dt_s": 0.001}),
    "step-default": ("step", {"input": "p_load_load1"}),
    "step-amplitude": ("step", {"input": "p_load_load1", "amplitude": -2}),
    "steady": ("steady", {"delta_p_l_pu": 1.0}),
    "steady-w": ("steady", {"delta_p_l_w": 5000.0}),
    "sweep": ("sweep", {"parameter": "k_d_1",
                        "values": [0.0005, 0.001, 0.002, 0.004], **CHANNEL}),
    "spectrum": ("spectrum", {"input": "p_load_load1",
                              "channel": "omega_vsc1"}),
    "spectrum-times": ("spectrum", {"input": "p_load_load1",
                                    "channel": "omega_vsc1",
                                    "t_end_s": 20.0, "dt_s": 0.002}),
    "check": ("check", {}),
}
#: config -> (preset, overrides) of the ``peak/*`` keys.
PEAK_CONFIGS = {f"{name}{suffix}": (name, overrides) for name in PRESETS
                for suffix, overrides in (("", {}),
                                          ("-k_d-0.005", {"k_d": 0.005}),
                                          ("-k_p-0.05", {"k_p": 0.05}))}
#: band -> the band options of ``analysis.bode``.
PEAK_BANDS = {"default": {},
              "0.05-500Hz-25": {"f_min": 0.05, "f_max": 500.0, "points": 25}}
#: (scenario, overrides) that the tests and the benchmark resolve.
OVERRIDES = (
    ("islanded_pv", {"k_p": 0.05}),
    ("islanded_pv", {"k_d": 0.005}),
    ("islanded_pv", {"k_p": 0.05, "k_d": 0.01}),
    ("islanded_pv", {"tau_kd": 0.0}),
    ("islanded_pv", {"tau_kd": 0.02}),
    ("islanded_pv", {"k_d_1": 0.001}),
    ("islanded_pv", {"vscs.0.control.k_d": 0.005}),
    ("islanded_pv", {"vscs.0.control.k_p": 0.05}),
    ("islanded_pv", {"vscs.0.control.tau_kd_s": 0.0}),
    ("islanded_pv", {"vscs.0.pv.k_pv_pu": 0.0}),
    ("islanded_pv", {"vscs.0.pv": None, "sg.k_tg": 0.0}),
    ("islanded_pv", {"ratio_bounds": {"vsc1": 0.3}}),
    ("islanded_pv", {"vscs.0.c_dcf": 0.1}),
    ("lvdc_async", {"k_p": 0.05}),
    ("lvdc_async", {"k_d_1": 0.1}),
    ("lvdc_async", {"k_d_1": 0.0005}),
    ("lvdc_async", {"k_d_2": 0.012}),
    ("lvdc_async", {"k_p": 0.03, "k_p_1": 0.04}),
    ("lvdc_async", {"k_p_1": 0.04, "k_p": 0.03}),
    ("lvdc_async", {"tau_kd": 0.02}),
    ("lvdc_async", {"r_dc": 0.0}),
    ("lvdc_async", {"r_dc": 0.3}),
    ("lvdc_async", {"l_dc": 3e-05}),
    ("lvdc_async", {"v_dc_star_pu": [0.9975, 1.0]}),
    ("lvdc_async", {"r_dc": 0.0, "v_dc_star_pu": [0.9975, 1.0]}),
    ("lvdc_async", {"k_d": 0.005, "vscs.1.c_dc_f": 0.0062}),
    ("lvdc_async", {"vscs.0.c_dc_f": 0.0062}),
    ("lvdc_async", {"vscs.0.v_dc_star_v": 0.0}),
    ("lvdc_async", {"ratio_bounds": {"load1": 0.2}}),
    ("lvdc_async", {"base.s_base_vaa": 1.0}),
    ("lvdc_async", {"vscs.0.control.kp": 1.0}),
    ("lvdc_async", {"ratio_bound": 1.0}),
    ("lvdc_async", {"ac_edges.2.segments.1.length": 1.0}),
    ("lvdc_async", {"dc_edges.0.r_dc": 1.0}),
    ("parallel_ac_dc", {"v_dc_star_pu": [0.9975, 1.0]}),
    ("parallel_ac_dc", {"r_dc": 0.0}),
    ("parallel_ac_dc", {"vscs.1.l_virtual_h": 0.005}),
)
#: Marks a ``MALFORMED`` case that deletes the key at its path.
DELETE = object()
#: case -> (preset, dotted path, the value an override sets there, DELETE
#: to remove the key from the preset, or a function of the preset's value
#: there that returns the value to put in its place).
MALFORMED = {
    "no-base": ("islanded_pv", "base", DELETE),
    "no-sg": ("lvdc_async", "sg", DELETE),
    "no-vscs": ("lvdc_async", "vscs", DELETE),
    "no-ac-nodes": ("lvdc_async", "ac_nodes", DELETE),
    "no-ac-edges": ("lvdc_async", "ac_edges", DELETE),
    "no-dc-edges": ("lvdc_async", "dc_edges", DELETE),
    "no-base-f": ("lvdc_async", "base.f_base_hz", DELETE),
    "no-sg-h": ("lvdc_async", "sg.h_s", DELETE),
    "no-vsc-control": ("lvdc_async", "vscs.1.control", DELETE),
    "no-vsc-setpoint": ("lvdc_async", "vscs.0.v_dc_star_v", DELETE),
    "no-control-k_p": ("lvdc_async", "vscs.0.control.k_p", DELETE),
    "no-pv-k_pv": ("islanded_pv", "vscs.0.pv.k_pv_pu", DELETE),
    "no-ac-edge-k": ("lvdc_async", "ac_edges.1.k", DELETE),
    "no-segment-cable": ("lvdc_async", "ac_edges.2.segments.1.cable",
                         DELETE),
    "no-dc-edge-cable": ("lvdc_async", "dc_edges.0.cable", DELETE),
    "unknown-top": ("lvdc_async", "bogus", 1.0),
    "unknown-base": ("lvdc_async", "base.bogus", 1.0),
    "unknown-sg": ("lvdc_async", "sg.bogus", 1.0),
    "unknown-vsc": ("lvdc_async", "vscs.1.bogus", 1.0),
    "unknown-control": ("lvdc_async", "vscs.0.control.bogus", 1.0),
    "unknown-pv": ("islanded_pv", "vscs.0.pv.bogus", 1.0),
    "unknown-ac-edge": ("lvdc_async", "ac_edges.2.bogus", 1.0),
    "unknown-segment": ("lvdc_async", "ac_edges.2.segments.1.bogus", 1.0),
    "unknown-dc-edge": ("lvdc_async", "dc_edges.0.bogus", 1.0),
    "object-base": ("lvdc_async", "base", 5),
    "object-sg": ("lvdc_async", "sg", [1]),
    "object-vsc": ("lvdc_async", "vscs.0", "vsc1"),
    "object-control": ("lvdc_async", "vscs.0.control", 0.1),
    "object-pv": ("islanded_pv", "vscs.0.pv", True),
    "object-ac-edge": ("lvdc_async", "ac_edges.0", 5),
    "object-segment": ("lvdc_async", "ac_edges.0.segments.0", None),
    "object-dc-edge": ("lvdc_async", "dc_edges.0", "vsc1"),
    "pair-ac-node": ("lvdc_async", "ac_nodes.0", ["sg"]),
    "virtual-at-other-vsc": ("parallel_ac_dc", "ac_edges.3.virtual_at",
                             "vsc1"),
    "virtual-at-non-vsc": ("lvdc_async", "ac_edges.1.virtual_at", "load1"),
    "catalog-missing": ("islanded_pv", "cable_catalog", "missing.json"),
    "catalog-invalid": ("islanded_pv", "cable_catalog", "invalid.json"),
    "catalog-list": ("islanded_pv", "cable_catalog", "list.json"),
    "catalog-no-cables": ("islanded_pv", "cable_catalog", "empty.json"),
    "catalog-bool": ("islanded_pv", "cable_catalog", True),
    "catalog-int": ("islanded_pv", "cable_catalog", 5),
    "catalog-object": ("islanded_pv", "cable_catalog", {}),
    "catalog-entry-no-r": ("islanded_pv", "cable_catalog", "no-r.json"),
    "catalog-entry-string-r": ("islanded_pv", "cable_catalog",
                               "string-r.json"),
    "duplicate-vsc": ("lvdc_async", "vscs", lambda vscs: vscs + [{
        **vscs[0], "control": {**vscs[0]["control"], "k_p": 0.5}}]),
    "duplicate-ac-node": ("lvdc_async", "ac_nodes",
                          lambda nodes: nodes + [["load1", "load_ac"]]),
    "lossless-unequal-setpoints": ("parallel_ac_dc", "r_dc", 0.0),
    "ac-self-loop": ("islanded_pv", "ac_edges", lambda edges: edges + [{
        **edges[0], "k": edges[0]["n"]}]),
    "dc-self-loop": ("lvdc_async", "dc_edges", lambda edges: edges + [{
        **edges[0], "k": edges[0]["n"]}]),
    "array-ac-nodes": ("lvdc_async", "ac_nodes", {"sg": "sm"}),
    "array-ac-edges": ("lvdc_async", "ac_edges", 5),
    "array-dc-edges": ("lvdc_async", "dc_edges", None),
    "array-vscs": ("lvdc_async", "vscs", "ab"),
    "array-segments": ("lvdc_async", "ac_edges.0.segments",
                       {"cable": "NAYY 4x240"}),
    "sg-false": ("islanded_pv", "sg", False),
    "sg-empty": ("islanded_pv", "sg", {}),
    "pv-false": ("islanded_pv", "vscs.0.pv", False),
    "pv-empty": ("islanded_pv", "vscs.0.pv", {}),
    "ratio-bounds-zero": ("islanded_pv", "ratio_bounds", 0),
    "ratio-bounds-string": ("islanded_pv", "ratio_bounds", "x"),
    "index-k_p_0": ("islanded_pv", "k_p_0", 0.1),
    "index-tau_kd_3": ("lvdc_async", "tau_kd_3", 0.02),
}
#: file name -> content of the catalog files that ``MALFORMED`` names.
CATALOG_FILES = {
    "invalid.json": "{not json", "list.json": "[1]", "empty.json": "{}",
    "no-r.json": json.dumps({"cables": {
        "NAYY 4x240": {"x_ohm_per_km": 0.08},
        "NAYY 4x35": {"r_ohm_per_km": 0.868, "x_ohm_per_km": 0.083}}}),
    "string-r.json": json.dumps({"cables": {
        "NAYY 4x240": {"r_ohm_per_km": 0.125, "x_ohm_per_km": 0.08},
        "NAYY 4x35": {"r_ohm_per_km": "0.868", "x_ohm_per_km": 0.083}}}),
}


#: graph -> (AC nodes as (name, kind), AC edges as (n, k, l in H, rho in
#: 1/s, l_virt_k in H), with r = rho l) of the Assumption-1 regressions:
#: one load between two lossless lines, a lossless area with adjacent
#: loads, and adjacent loads at one uniform rho.
REGRESSIONS = {
    "lossless-chain": (
        (("sm", "sm"), ("vsc", "vsc"), ("load", "load_ac")),
        (("sm", "load", 1.02e-6, 0.0, 0.0),
         ("load", "vsc", 6.6e-6, 0.0, 0.0023))),
    "lossless-adjacent": (
        (("sm", "sm"), ("vsc", "vsc"), ("ld1", "load_ac"),
         ("ld2", "load_ac")),
        (("sm", "ld1", 1e-6, 0.0, 0.0), ("ld1", "ld2", 5e-6, 0.0, 0.0),
         ("ld2", "vsc", 2e-6, 0.0, 1e-4))),
    "uniform-rho-adjacent": (
        (("sm", "sm"), ("vsc", "vsc"), ("ld1", "load_ac"),
         ("ld2", "load_ac")),
        (("sm", "ld1", 1e-6, 1000.0, 0.0),
         ("ld1", "ld2", 5e-6, 1000.0, 0.0),
         ("ld2", "vsc", 2e-6, 1000.0, 1e-4))),
}


def digest(*parts) -> str:
    """sha256 over arrays (dtype, shape and bytes) and JSON values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def import_tree(tree: Path):
    """``acdcdyn`` and its modules, imported from ``tree/src``."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    acdcdyn = importlib.import_module("acdcdyn")
    if Path(acdcdyn.__file__).resolve().parent != src / "acdcdyn":
        raise SystemExit(f"acdcdyn imported from {acdcdyn.__file__}, "
                         f"not from {src}")
    importlib.import_module("acdcdyn.cli")
    return acdcdyn


def build_model(system, data):
    """``build``'s model of `data`, or the class name of the exception that
    ``config_from_dict`` or ``build`` raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return system.build(system.config_from_dict(data))
    except Exception as exc:  # the class is the record
        return type(exc).__name__


def build_digest(model) -> str:
    if isinstance(model, str):
        return model
    ss = model.ss
    return digest(ss.A, ss.B, ss.C, ss.D, list(ss.input_names),
                  list(ss.output_names), model.network_verdict)


def record_analysis(acdcdyn, key: str, model, out: dict) -> None:
    """The ``analysis/<key>/...`` keys of a model that built."""
    try:
        verdict = acdcdyn.analysis.stability(model).stable
        structural = sum(p.structural for p in acdcdyn.lti.poles(model.ss))
    except Exception as exc:  # the class is the record
        out[f"analysis/{key}/stable"] = type(exc).__name__
    else:
        out[f"analysis/{key}/stable"] = verdict
        out[f"analysis/{key}/structural"] = structural
    try:
        out[f"analysis/{key}/dc_gain"] = digest(acdcdyn.lti.dc_gain(model.ss))
    except Exception as exc:  # the class is the record
        out[f"analysis/{key}/dc_gain"] = type(exc).__name__


def assumption1_record(network, graph):
    """[verdict, reason, sha256 of the roots] of ``check_assumption1`` on
    the graph that ``graph()`` returns, or the class name of the exception
    raised on the way."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = network.check_assumption1(graph())
    except Exception as exc:  # the class is the record
        return type(exc).__name__
    return [v.verdict, v.reason, digest(np.array(v.roots, dtype=complex))]


def record_assumption1(acdcdyn, out: dict) -> None:
    """The ``assumption1/<graph>`` keys of ``REGRESSIONS``."""
    network = acdcdyn.network
    for name, (nodes, edges) in REGRESSIONS.items():
        out[f"assumption1/{name}"] = assumption1_record(
            network, lambda: network.HybridGraph(
                tuple((n, network.NodeKind(kind)) for n, kind in nodes),
                tuple(network.AcEdge(n, k, l, rho * l, l_virt_k=lv)
                      for n, k, l, rho, lv in edges),
                (), 400.0, 2.0 * math.pi * 50.0, {"vsc": 650.0}))


def coefficients(tfs):
    """The (numerator, denominator) coefficients of nested sequences of
    transfer functions, nested alike."""
    if isinstance(tfs, (list, tuple)):
        return [coefficients(x) for x in tfs]
    return [list(tfs.num.coeffs), list(tfs.den.coeffs)]


def network_digest(acdcdyn, data) -> str:
    network = acdcdyn.network
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = acdcdyn.system.config_from_dict(data).graph
            ac = network.kron_reduce_symbolic(network.ac_laplacian_tfs(g),
                                              len(g.conv_names))
            dc = network.dc_laplacian_tfs(g)
    except Exception as exc:  # the class is the record
        return type(exc).__name__
    return digest(coefficients([ac, dc]))


def record_builds(acdcdyn, out: dict) -> None:
    system = acdcdyn.system
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from feeder import FeederStream
    configs = [(name, system._load_preset(name)) for name in PRESETS]
    configs += [(f"feeder{seed}/{i:02d}", data) for seed in (0, 1)
                for i, data in enumerate(itertools.islice(FeederStream(seed),
                                                          FEEDERS))]
    for key, data in configs:
        model = build_model(system, data)
        out[f"build/{key}"] = build_digest(model)
        if not isinstance(model, str):
            record_analysis(acdcdyn, key, model, out)
        out[f"network/{key}"] = network_digest(acdcdyn, data)
        out[f"assumption1/{key}"] = assumption1_record(
            acdcdyn.network, lambda: system.config_from_dict(data).graph)


def record_cli(acdcdyn, out: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for run, (command, options) in CLI_RUNS.items():
            for name in PRESETS:
                key = f"cli/{run}/{name}"
                cfg = tmp / f"{run}-{name}.json"
                cfg.write_text(json.dumps({"scenario": name,
                                           "options": options}))
                run_dir = tmp / f"{run}-{name}"
                with contextlib.redirect_stderr(io.StringIO()), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = acdcdyn.cli.main([command, "--config", str(cfg),
                                             "--out", str(run_dir)])
                out[f"{key}/exit"] = code
                for path in sorted(run_dir.iterdir()):
                    out[f"{key}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
                    path.unlink()


def record_peaks(acdcdyn, out: dict) -> None:
    analysis, system = acdcdyn.analysis, acdcdyn.system
    for config, (name, overrides) in PEAK_CONFIGS.items():
        model = build_model(system, system.resolve_scenario(name, overrides))
        for band, options in PEAK_BANDS.items():
            if isinstance(model, str):
                out[f"peak/{config}/{band}"] = model
                continue
            peaks = {}
            for i, o in itertools.product(model.ss.input_names,
                                          model.ss.output_names):
                try:
                    peaks[f"{i}>{o}"] = list(analysis.resonance_peak(
                        analysis.bode(model, i, o, **options)))
                except Exception as exc:  # the class is the record
                    peaks[f"{i}>{o}"] = type(exc).__name__
            out[f"peak/{config}/{band}"] = peaks


def record_resolve(acdcdyn, out: dict) -> None:
    for scenario, overrides in OVERRIDES:
        key = f"resolve/{scenario} {json.dumps(overrides)}"
        try:
            data = acdcdyn.system.resolve_scenario(scenario, overrides)
        except Exception as exc:  # the class is the record
            out[key] = type(exc).__name__
        else:
            out[key] = digest(data)


def record_configs(acdcdyn, out: dict) -> None:
    system = acdcdyn.system
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for file, content in CATALOG_FILES.items():
            Path(file).write_text(content)
        for case, (name, path, value) in MALFORMED.items():
            scenario, overrides = name, {path: value}
            if value is DELETE or callable(value):
                scenario, overrides = system._load_preset(name), {}
                *parents, key = path.split(".")
                block = scenario
                for seg in parents:
                    block = block[int(seg) if isinstance(block, list)
                                  else seg]
                if value is DELETE:
                    del block[key]
                else:
                    block[key] = value(block[key])
            try:
                system.config_from_dict(
                    system.resolve_scenario(scenario, overrides))
            except Exception as exc:  # the class and message are the record
                message = (exc.args[0] if isinstance(exc, KeyError)
                           and exc.args else exc)
                out[f"config/{case}"] = f"{type(exc).__name__}: {message}"
            else:
                out[f"config/{case}"] = "loads"


def record(tree: Path, path: Path) -> int:
    acdcdyn = import_tree(tree)
    out: dict = {}
    record_builds(acdcdyn, out)
    record_assumption1(acdcdyn, out)
    record_cli(acdcdyn, out)
    record_peaks(acdcdyn, out)
    record_resolve(acdcdyn, out)
    record_configs(acdcdyn, out)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    raised = [v for k, v in out.items()
              if k.startswith("build/") and len(v) != 64]
    failed = [k for k, v in out.items() if k.endswith("/exit") and v != 0]
    print(f"{len(out)} keys; builds raising: {len(raised)} "
          f"({', '.join(sorted(set(raised)))}); CLI runs not exiting 0: "
          f"{len(failed)}")
    return 0


def compare(a: Path, b: Path) -> int:
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    differ = sorted(k for k in ra.keys() | rb.keys()
                    if ra.get(k, "<missing>") != rb.get(k, "<missing>"))
    for k in differ:
        va, vb = ra.get(k, "<missing>"), rb.get(k, "<missing>")
        if isinstance(va, dict) and isinstance(vb, dict):
            for e in sorted(va.keys() | vb.keys()):
                if va.get(e, "<missing>") != vb.get(e, "<missing>"):
                    print(f"{k} [{e}]: {va.get(e, '<missing>')} != "
                          f"{vb.get(e, '<missing>')}")
        else:
            print(f"{k}: {va} != {vb}")
    print(f"{len(ra.keys() | rb.keys())} keys, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record", help="record a source tree")
    rec.add_argument("tree", type=Path)
    rec.add_argument("out", type=Path)
    cmp_ = sub.add_parser("compare", help="compare two records")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.action == "record":
        return record(args.tree, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

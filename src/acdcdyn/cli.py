"""Command-line interface: config ingestion, scenario execution, CSV export.

Usage: acdcdyn <command> --config <path> [--out <dir>] [--set key=value ...]

Commands: poles | bode | step | steady | sweep | spectrum | check.
Configs are JSON; every run writes its artifacts plus a manifest with the
fully resolved parameters and per-unit bases.  Identical configs produce
byte-identical CSVs (fixed 9-significant-digit formatting, fixed ordering).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .lti import (NoDcGain, NumericFailure, _channel_index,
                  _eig_structural_mask, check_real, dc_gain, fft_magnitude,
                  step_response)
from .network import _read_json, check_assumption1
from .system import build, config_from_dict, resolve_scenario, steady_state
from . import analysis

#: The default of an option that a command cannot run without.
_REQUIRED = object()
_NAME, _PASS = ("name", _REQUIRED), (None, None)
#: key -> (kind, default) of the ``options`` that each command reads, as
#: ``_read_options`` applies them.  ``steady`` takes exactly one of its two.
OPTIONS = {
    "poles": {},
    "bode": {"input": _NAME, "output": _NAME, "f_min_hz": _PASS,
             "f_max_hz": _PASS, "points": _PASS},
    "step": {"input": _NAME, "t_end_s": ("positive", 10.0),
             "dt_s": ("positive", 1e-3), "amplitude": ("real", 1.0)},
    "steady": {"delta_p_l_pu": ("real", None), "delta_p_l_w": ("real", None)},
    "sweep": {"parameter": _NAME, "values": ("values", _REQUIRED),
              "input": _NAME, "output": _NAME},
    "spectrum": {"input": _NAME, "channel": _NAME,
                 "t_end_s": ("positive", 40.0), "dt_s": ("positive", 1e-3)},
    "check": {},
}
COMMANDS = tuple(OPTIONS)


class ValidationError(ValueError):
    """Config parsed but violates an invariant."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    scenario: object             # preset name or inline scenario dict
    overrides: dict
    options: dict


#: Rows written by one %-format string.
_CSV_BLOCK_ROWS = 2048


def _cell(x) -> tuple[str, object]:
    """The %-format and the value that write one CSV cell: ``%.9g`` for
    floats, 1/0 for bools, ``str`` for ints, strings as given."""
    if isinstance(x, str):
        return "%s", x
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return "%d", int(x)
    return "%.9g", float(x)


def _column(values) -> tuple[str, np.ndarray]:
    """One %-format for a whole column, and its cells as an array.  A
    NumPy array takes the format of its dtype; the cells of any other
    sequence are formatted one by one and written as strings."""
    if isinstance(values, np.ndarray):
        return _cell(values.dtype.type())[0], values
    return "%s", np.array([spec % v for spec, v in map(_cell, values)],
                          dtype=object)


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write one sequence per header name as the columns of a CSV file,
    ``_CSV_BLOCK_ROWS`` rows per %-format string."""
    cols = [_column(c) for c in columns]
    row = ",".join(spec for spec, _ in cols) + "\n"
    width = len(cols)
    n = len(cols[0][1]) if cols else 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for i in range(0, n, _CSV_BLOCK_ROWS):
            k = min(_CSV_BLOCK_ROWS, n - i)
            cells = [None] * (k * width)
            for j, (_, values) in enumerate(cols):
                cells[j::width] = values[i:i + k].tolist()
            f.write(row * k % tuple(cells))


def load_config(path: str, command: str, sets: list[str]) -> RunConfig:
    """Read a run: the JSON config at `path`, with each ``key=value`` of
    `sets` applied, ``options.<key>`` to the options and any other key to
    the overrides.  A value that is not JSON is taken as a string."""
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    if "scenario" not in data:
        raise ValidationError("config is missing the 'scenario' field")
    blocks = {key: data.get(key, {}) for key in ("overrides", "options")}
    for key, block in blocks.items():
        if not isinstance(block, dict):
            raise ValidationError(f"'{key}' must be an object")
    for item in sets:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if key.startswith("options."):
            blocks["options"][key[len("options."):]] = value
        else:
            blocks["overrides"][key] = value
    return RunConfig(command, data["scenario"], **blocks)


def run(cfg: RunConfig, out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"tool": "acdcdyn", "version": __version__,
                "command": cfg.command, "outputs": []}
    try:
        data = resolve_scenario(cfg.scenario, cfg.overrides)
        manifest["scenario"] = data.get("scenario", "inline")
        manifest["resolved_parameters"] = data
        sysconf = config_from_dict(data)
        manifest["per_unit_base"] = {
            "s_base_va": sysconf.base.S_base,
            "v_base_ac_v": sysconf.base.V_base_ac,
            "v_base_dc_v": sysconf.base.V_base_dc,
            "omega_base_rad_s": sysconf.base.omega_base,
        }
        _dispatch(cfg, sysconf, out, manifest)
    except (NumericFailure, np.linalg.LinAlgError) as exc:
        print("numeric failure:", _write_error(out, manifest, exc),
              file=sys.stderr)
        return 2
    except (ValueError, LookupError, TypeError) as exc:
        print("error:", _write_error(out, manifest, exc), file=sys.stderr)
        return 1
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return 0


def _write_error(out: Path, manifest: dict, exc: Exception) -> str:
    # the message, returned; a KeyError's str is the repr of its argument
    message = str(exc.args[0] if isinstance(exc, KeyError) and exc.args
                  else exc)
    record = {"error": type(exc).__name__, "message": message,
              "manifest": manifest}
    with open(out / "error.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return message


def _read_options(command: str, given: dict) -> dict:
    """`given`, with no key that ``OPTIONS[command]`` lacks or requires
    missing, each value checked by its kind and named ``options.<key>``
    ("real" and "positive" by ``check_real``, "name" a string, "values" a
    non-empty list, None not at all), and every other default but None."""
    spec = OPTIONS[command]
    unknown = sorted(set(given) - set(spec))
    if unknown:
        raise KeyError(f"unknown keys {unknown} in options")
    missing = [f"options.{key}" for key, (_, default) in spec.items()
               if default is _REQUIRED and key not in given]
    if missing:
        raise ValueError("missing " + ", ".join(missing))
    opt = {key: default for key, (_, default) in spec.items()
           if default is not None}
    for key, value in given.items():
        kind, where = spec[key][0], f"options.{key}"
        if kind in ("real", "positive"):
            value = check_real(where, value, kind)
        elif kind == "name" and not isinstance(value, str):
            raise TypeError(f"{where} must be a string, got {value!r}")
        elif kind == "values" and not isinstance(value, list):
            raise TypeError(f"{where} must be a list, got {value!r}")
        elif kind == "values" and not value:
            raise ValueError(f"{where} must be non-empty")
        opt[key] = value
    return opt


def _dispatch(cfg: RunConfig, sysconf, out: Path, manifest: dict) -> None:
    opt = _read_options(cfg.command, cfg.options)

    def write(name: str, header: list[str], columns) -> None:
        _write_csv(out / name, header, columns)
        manifest["outputs"].append(name)

    if cfg.command == "poles":
        A = build(sysconf).ss.A
        # The last dense eigensolve of A.  The benchmark's reference for
        # poles.csv pins LAPACK's order of tied poles, which the block
        # solves of ss.eigvals do not keep; this call goes, and poles()
        # gives the rows, once that check compares poles as a multiset
        # (ROADMAP.md, item 1).
        ev = np.linalg.eigvals(A)
        rows = sorted(((complex(v).real, complex(v).imag, bool(m))
                       for v, m in zip(ev, _eig_structural_mask(A, ev))),
                      key=lambda r: (r[0], r[1]))
        write("poles.csv", ["re", "im", "structural"], zip(*rows))

    elif cfg.command == "bode":
        model = build(sysconf)
        band = {arg: opt[key] for arg, key in (
            ("f_min", "f_min_hz"), ("f_max", "f_max_hz"), ("points", "points"))
            if key in opt}
        table = analysis.bode(model, opt["input"], opt["output"], **band)
        write("bode.csv", ["f_hz", "mag_db", "phase_deg"],
              [table.f_hz, table.mag_db, table.phase_deg])

    elif cfg.command == "step":
        model = build(sysconf)
        ts = step_response(model.ss, opt["input"], opt["t_end_s"],
                           opt["dt_s"])
        write("step.csv", ["t_s", *ts.channels],
              [ts.t] + [x * opt["amplitude"] for x in ts.channels.values()])

    elif cfg.command == "steady":
        if ("delta_p_l_pu" in opt) == ("delta_p_l_w" in opt):
            raise ValueError("steady takes exactly one of "
                             "options.delta_p_l_pu and options.delta_p_l_w")
        if "delta_p_l_pu" in opt:
            dp = opt["delta_p_l_pu"]
        else:
            dp = opt["delta_p_l_w"] / sysconf.base.S_base
        st = steady_state(sysconf, dp)
        rows = [("delta_p_l", dp), ("domega", st.domega),
                ("dp_tg", st.dp_tg), ("dp_pv", st.dp_pv)]
        rows += [(f"dv_dc_{n}", v) for n, v in sorted(st.dv_dc.items())]
        rows += [(f"dp_ac_{n}", v) for n, v in sorted(st.dp_ac.items())]
        write("steady.csv", ["quantity", "value_pu"], zip(*rows))
        manifest["effective_droops"] = {"kappa_tg": st.kappa_tg,
                                        "kappa_pv": st.kappa_pv}

    elif cfg.command == "sweep":
        param, values = opt["parameter"], opt["values"]
        scenario = manifest["resolved_parameters"]
        points = analysis.sweep(
            lambda v: config_from_dict(resolve_scenario(scenario, {param: v})),
            values, (opt["input"], opt["output"]))
        rows = [(pt.value, "", "", "", pt.error) if pt.error
                else (pt.value, pt.stable, *pt.peak, "") for pt in points]
        write("sweep.csv",
              [param, "stable", "f_peak_hz", "mag_peak_db", "error"],
              zip(*rows))

    elif cfg.command == "spectrum":
        model = build(sysconf)
        _channel_index(model.ss.output_names, opt["channel"], "output")
        ts = step_response(model.ss, opt["input"], opt["t_end_s"],
                           opt["dt_s"])
        spec = fft_magnitude(ts, opt["channel"])
        write("spectrum.csv", ["f_hz", "magnitude"],
              [spec.freq_hz, spec.magnitude])

    elif cfg.command == "check":
        verdict = check_assumption1(sysconf.graph)
        model = build(sysconf, check_network=False)
        stab = analysis.stability(model)
        rows = [("assumption1", verdict.verdict),
                ("stable", "true" if stab.stable else "false")]
        rows += [(f"ratio_bound_{n}", "pass" if ok else "fail")
                 for n, ok in sorted(analysis.check_ratio_bounds(sysconf)
                                     .items())]
        write("check.csv", ["check", "result"], zip(*rows))
        manifest["assumption1"] = verdict.verdict
        manifest["stable"] = stab.stable
        try:
            dc_gain(model.ss)
            manifest["dc_gain_available"] = True
        except NoDcGain:
            manifest["dc_gain_available"] = False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="acdcdyn",
        description="Small-signal analysis of hybrid AC/DC networks under "
                    "dual-port grid-forming control.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry (dotted path or named "
                             "gain; prefix 'options.' to target command "
                             "options)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, args.set)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())

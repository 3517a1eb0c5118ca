"""Command-line interface: config ingestion, scenario execution, CSV export.

Usage: acdcdyn <command> --config <path> [--out <dir>] [--set key=value ...]

Commands: poles | bode | step | steady | sweep | spectrum | check.
Configs are JSON; every run writes its artifacts plus a manifest with the
fully resolved parameters and per-unit bases.  Identical configs produce
byte-identical CSVs in a fixed order: every float cell equals
``'%.9g' % float(x)`` byte for byte, a bool is 1 or 0, an int its ``str``
and a string itself, quoted per RFC 4180 when it holds a comma, quote, CR
or LF (``_write_csv``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .lti import (NoDcGain, NumericFailure, _channel_index,
                  _eig_structural_mask, check_real, dc_gain, fft_magnitude,
                  step_response)
from .network import _read_json
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


#: Rows per block of the CSV writer: its arrays and the bytes it writes
#: at once are bounded by this many rows.  The arrays of a step's dozen
#: channels then stay in a core's cache: 2048 rows took about 1.4x as
#: long on the 80 s step of ``parallel_ac_dc``.
_CSV_BLOCK_ROWS = 512
#: Decimal exponents e = floor(log10|x|) that ``_float_words`` formats:
#: the range of float32's log10, where every 10**(8 - e) is a normal
#: double.  Other finite floats are fallback cells.
_EXP_MIN, _EXP_MAX = -45, 38
#: Exponent rows of the tables: row i is e = _EXP_MAX + 1 - i, so row 0
#: is the carry of _EXP_MAX into the next power.
_EXP_ROWS = _EXP_MAX - _EXP_MIN + 2
#: Offset of the digit groups of ``_csv_tables`` that blank trailing
#: zeros, after the 4 variants that keep them.
_TRAILING = 4 * 1000


def _quote(text: str) -> str:
    """A text cell or header name as RFC 4180 writes it: as given, or in
    double quotes with each quote doubled when it holds a comma, a quote,
    a CR or a LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(x) -> tuple[str, object]:
    """The %-format and the value that write one CSV cell: ``%.9g`` for
    floats, 1/0 for bools, ``str`` for ints, strings by ``_quote``."""
    if isinstance(x, str):
        return "%s", _quote(x)
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return "%d", int(x)
    return "%.9g", float(x)


def _column(values):
    """A column as the writer reads it: a float64 array when the column
    is a float array or a sequence of floats only, else the cells."""
    if isinstance(values, np.ndarray):
        return values.astype(np.float64, copy=False) \
            if values.dtype.kind == "f" else values
    values = list(values)
    if all(isinstance(v, float) for v in values):
        return np.array(values, dtype=np.float64)
    return values


@cache
def _csv_tables() -> SimpleNamespace:
    """The read-only tables of ``_float_words``, built on first use.

    ``pow10[i]`` is the double nearest 10**(8 - e).  ``groups`` holds the
    3 ASCII digits of each g = 0..999 as the low bytes of a word, in 4
    variants: 0 the digits alone, 1 + q with a '.' before digit q.  From
    ``_TRAILING`` come the same 4 with the trailing zero digits, and a
    '.' that only they follow, blanked to NUL.  By layout 2*i + sign:
    ``lead`` and ``tail`` are the constant bytes of the 16-byte text (the
    sign, a "0.000" prefix, a '0' under every digit that %g prints even
    when zero, the "e+XX" suffix); ``group0`` to ``group2`` are the rows
    of ``groups`` that the digit groups take, ``at1`` and ``at2`` the bit
    offsets of groups 1 and 2 in the digits, and ``at`` the bit offset
    of the digits in the text."""
    u64 = np.uint64
    pow10 = np.array([float(f"1e{k}") for k in range(7 - _EXP_MAX,
                                                     10 - _EXP_MIN)])
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10]).astype(u64) + u64(48)
    trailing = sum(g % 10**z == 0 for z in (1, 2, 3))
    # the bit offset of digit j in variant v: the '.' goes before digit v-1
    shift = [[8 * (j + (0 < v <= j + 1)) for j in range(3)]
             for v in range(4)]
    word = ((digits << np.array(shift, u64)[:, :, None]).sum(1, dtype=u64)
            | np.array([0, 46, 46 << 8, 46 << 16], u64)[:, None])
    # keep[v, t]: the bytes of variant v that are not t trailing zeros
    keep = np.array([[sum(0xFF << s[j] for j in range(3 - t))
                      | (0xFF << 8 * (v - 1) if 0 < v <= 3 - t else 0)
                      for t in range(4)] for v, s in enumerate(shift)], u64)
    # by layout 2*i + sign; the first digit is at byte `prefix`, and
    # `dot` digits go before the '.'
    lead, tail, prefix, dot = [], [], [], []
    for x in range(_EXP_MAX + 1, _EXP_MIN - 1, -1):
        if -4 <= x < 0:
            body, first, point = "0." + "0" * -x, 1 - x, 9
        elif 0 <= x <= 8:
            body, first, point = "0" * (x + 1), 0, x + 1
        else:
            body, first, point = "0" + "\0" * 9 + f"e{x:+03d}", 0, 1
        word0 = int.from_bytes(body.encode(), "little")
        for text in (word0, word0 << 8 | ord("-")):
            lead.append(text & (2**64 - 1))
            tail.append(text >> 64)
        prefix += [first, first + 1]
        dot += [point, point]
    dot = np.array(dot)
    tables = SimpleNamespace(
        pow10=pow10, groups=np.concatenate([word, word & keep[:, trailing]]
                                           ).reshape(-1),
        unpad=bytes.maketrans(b"\xff", b"\0"),
        lead=np.array(lead, u64), tail=np.array(tail, u64),
        at=8 * np.array(prefix, u64), at1=(24 + 8 * (dot < 3)).astype(u64),
        at2=(48 + 8 * (dot < 6)).astype(u64),
        group0=np.where(dot < 3, 1000 * (dot + 1), 0),
        group1=np.where((3 <= dot) & (dot < 6), 1000 * (dot - 2), 0),
        group2=_TRAILING + np.where((6 <= dot) & (dot < 9),
                                    1000 * (dot - 5), 0))
    for array in vars(tables).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return tables


def _float_words(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``'%.9g' % x`` of each float of `x`, NUL-padded to 16 bytes and
    read as two little-endian words, as an (x.size, 2) array, and the
    length of the longest fallback cell (0 if none).

    With e = floor(log10|x|), the digits are m = rint(|x| * 10**(8 - e)).
    The product has two roundings, of the power and of itself, so it is
    within 2**-52 * 1e9 < 2.3e-7 of the exact value, and its rint is the
    correctly rounded m unless it lies within 1e-6 of a half.  Those
    cells, nan, inf and exponents outside [_EXP_MIN, _EXP_MAX] fall
    back to ``%``; an m of 10**9 carries into e + 1.  The text is then
    fixed by e, the sign and m's three 3-digit groups: the groups, with
    the '.', are joined and shifted past the prefix of the layout, and
    the zeros that %g strips, and a '.' that only they follow, stay NUL."""
    t = _csv_tables()
    ax = np.abs(x)
    # nan, inf and 0 give no warning: they are odd cells below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.log10(ax.astype(np.float32))     # off by one near 10**e
        np.floor(e, out=e)
        np.fmin(np.fmax(e, _EXP_MIN, out=e), _EXP_MAX, out=e)   # no nan
        i = (_EXP_MAX + 1 - e).astype(np.intp)
        v = ax * t.pow10[i]
        m = np.rint(v)
        # zeros, nan, inf, exponents out of range or off by one, carries
        odd = np.flatnonzero(~((v >= 1e8) & (m < 1e9)))
        failed = _settle(ax, odd, i, v, m) if odd.size else odd
    fallback = np.concatenate([failed,
                               np.flatnonzero(np.abs(v - m) > 0.5 - 1e-6)])
    carry = odd[m[odd] >= 1e9]
    m[carry] = 1e8
    i[carry] -= 1
    m = m.astype(np.int64)
    g0 = m // 1000000
    rest = m - g0 * 1000000
    g1 = rest // 1000
    g2 = rest - g1 * 1000
    layout = 2 * i + np.signbit(x)
    # a group takes its row that blanks trailing zeros when the groups
    # after it are all zero
    g0 = t.groups[t.group0[layout] + g0 + (rest == 0) * _TRAILING]
    g1 = t.groups[t.group1[layout] + g1 + (g2 == 0) * _TRAILING]
    g2 = t.groups[t.group2[layout] + g2]
    # the 10 bytes of digits as two words, then shifted `at` bits into
    # the text; a shift by 64 bits or more gives 0
    at1, at2, at = t.at1[layout], t.at2[layout], t.at[layout]
    low = g0 | g1 << at1 | g2 << at2
    high = g2 >> (np.uint64(64) - at2)
    words = np.empty((len(x), 2), np.uint64)
    np.bitwise_or(t.lead[layout], low << at, out=words[:, 0])
    np.bitwise_or(t.tail[layout] | high << at,
                  low >> (np.uint64(64) - at), out=words[:, 1])
    longest = 0
    for j in fallback:
        text = ("%.9g" % x[j]).encode()
        longest = max(longest, len(text))
        words[j] = np.frombuffer(text.ljust(16, b"\0"), "<u8")
    return words, longest


def _settle(ax, odd, i, v, m) -> np.ndarray:
    """Set `i`, `v` and `m` of the odd cells of ``_float_words`` and
    return those that fall back to ``%``, with v = m = 0.  A zero gets
    m = 0 at e = 0.  Else e moves by one if v left [1e8, 1e9), and the
    cell falls back if v is still outside or e out of range."""
    zero = ax[odd] == 0
    i[odd] += (v[odd] < 1e8) * 1 - (v[odd] >= 1e9) * 1
    v[odd] = ax[odd] * _csv_tables().pow10[i[odd]]
    ok = zero | ((v[odd] >= 1e8) & (v[odd] < 1e9)
                 & (i[odd] >= 1) & (i[odd] < _EXP_ROWS))
    v[odd[zero | ~ok]] = 0
    i[odd[zero]], i[odd[~ok]] = _EXP_MAX + 1, 1
    m[odd] = np.rint(v[odd])
    return odd[~ok]


def _text_slots(cells) -> np.ndarray:
    """The UTF-8 text of each cell, NUL-padded to whole words with at
    least one NUL byte, as a (cells, words) array.  A NUL of the text is
    written as 0xFF, a byte UTF-8 never holds, and restored after the
    padding is deleted."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    texts = [(spec % v).encode().replace(b"\0", b"\xff")
             for spec, v in map(_cell, cells)]
    width = 8 * (max(map(len, texts), default=0) // 8 + 1)
    return np.array(texts, dtype=f"S{width}").view("<u8").reshape(
        len(texts), -1)


def _csv_block(cells: list) -> bytearray:
    """The CSV rows of one block, `cells` holding each column's slice.
    Each cell fills a slot of as many 8-byte words as the block's longest
    cell needs: its text, then NULs, and its separator in the last byte.
    One ``translate`` deletes the NULs."""
    k, t = len(cells[0]), _csv_tables()
    texts = {j: _text_slots(c) for j, c in enumerate(cells)
             if not (isinstance(c, np.ndarray) and c.dtype == np.float64)}
    x = np.zeros((k, len(cells)))       # a text column's floats go unused
    for j, c in enumerate(cells):
        if j not in texts:
            x[:, j] = c
    words, longest = _float_words(x.reshape(-1))
    width = max([longest // 8 + 1, 2] + [s.shape[1] for s in texts.values()])
    buffer = bytearray(8 * k * len(cells) * width)
    canvas = np.frombuffer(buffer, "<u8").reshape(k, len(cells), width)
    canvas[:, :, :2] = words.reshape(k, len(cells), 2)
    for j, slots in texts.items():
        canvas[:, j, :slots.shape[1]] = slots
        canvas[:, j, slots.shape[1]:] = 0
    sep = np.full(len(cells), ord(","), np.uint64)
    sep[-1] = ord("\n")
    canvas[:, :, -1] |= sep << np.uint64(56)
    return buffer.translate(t.unpad, b"\0")


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write one sequence per header name as the columns of a CSV file,
    ``_CSV_BLOCK_ROWS`` rows at a time.  Every float cell is
    ``'%.9g' % float(x)`` byte for byte, a bool 1 or 0, an int its
    ``str``, and a string and a header name as ``_quote`` writes them."""
    cols = [_column(c) for c in columns]
    n = len(cols[0]) if cols else 0
    with open(path, "wb") as f:
        f.write((",".join(map(_quote, header)) + "\n").encode())
        for i in range(0, n, _CSV_BLOCK_ROWS):
            f.write(_csv_block([c[i:i + _CSV_BLOCK_ROWS] for c in cols]))


def load_config(path: str, command: str, sets: list[str]) -> RunConfig:
    """Read a run: the JSON config at `path`, an object with a
    ``scenario`` and optional ``overrides`` and ``options`` objects and no
    other key, with each ``key=value`` of `sets` applied, ``options.<key>``
    to the options and any other key to the overrides.  A value that is
    not JSON is taken as a string."""
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    if "scenario" not in data:
        raise ValidationError("config is missing the 'scenario' field")
    unknown = sorted(set(data) - {"scenario", "overrides", "options"})
    if unknown:
        raise ValidationError(f"unknown keys {unknown} in the config")
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
        model = build(sysconf)
        stab = analysis.stability(model)
        rows = [("assumption1", model.network_verdict),
                ("stable", "true" if stab.stable else "false")]
        rows += [(f"ratio_bound_{n}", "pass" if ok else "fail")
                 for n, ok in sorted(analysis.check_ratio_bounds(sysconf)
                                     .items())]
        write("check.csv", ["check", "result"], zip(*rows))
        manifest["assumption1"] = model.network_verdict
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

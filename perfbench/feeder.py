"""Seeded radial low-voltage feeder scenarios for the ``feeder`` workload.

Each scenario is a plain dict in the JSON schema that
``acdcdyn.system.config_from_dict`` reads, so the program under test only
ever sees generated inputs.  A feeder is a synchronous generator at the head
of a chain of load nodes joined by catalog cables; a dual-port GFM VSC hangs
off every load (or every second load) behind its own cable, and DC links
chain consecutive VSCs at unequal voltage setpoints.

Parameters come from Kronecker low-discrepancy sequences (fractional parts
of ``(i + 1) * sqrt(prime)`` plus a shift).  Every prefix of such a sequence
covers the parameter ranges evenly, so a run that stops after any number of
operations sees the same mix of easy and hard feeders.
"""

from __future__ import annotations

import math
import random

AC_CABLES = ("NAYY 4x240", "NAYY 4x150", "NAYY 4x35")
DC_CABLE = "H07RN-F 2x6"

#: (load nodes, VSC at every n-th load).  The four-load shapes are kept on
#: purpose: at the seed commit they raise or blow up the model order.
SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))

BASE = {"s_base_va": 50000.0, "v_base_ac_v": 400.0, "v_base_dc_v": 740.0,
        "f_base_hz": 50.0}
SG = {"node": "sg", "s_n_va": 105000.0, "p_max_w": 50000.0, "v_n_v": 400.0,
      "n_r_hz": 25.0, "h_s": 0.1417, "k_tg": 20.0, "k_omega": 0.5,
      "t1_s": 0.03, "t2_s": 0.1}

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
           137, 139, 149, 151)
#: Kronecker step per dimension: fractional parts of square roots of primes.
_ALPHA = tuple(math.sqrt(p) % 1.0 for p in _PRIMES)


class Point:
    """One low-discrepancy point, read one coordinate at a time."""

    def __init__(self, shift: tuple[float, ...], index: int):
        self._shift = shift
        self._index = index
        self._dim = 0

    def uniform(self, lo: float, hi: float) -> float:
        d = self._dim
        self._dim += 1
        x = (self._shift[d] + (self._index + 1) * _ALPHA[d]) % 1.0
        return lo + (hi - lo) * x

    def pick(self, n: int) -> int:
        return min(int(self.uniform(0.0, n)), n - 1)


def feeder_dict(x: Point, y: Point, n_loads: int, vsc_every: int) -> dict:
    """One feeder scenario in the ``config_from_dict`` schema: ``x`` places
    the cables, ``y`` sets the DC setpoints and controller gains."""
    loads = [f"load{i + 1}" for i in range(n_loads)]
    vsc_at = list(range(0, n_loads, vsc_every))

    # The first two trunk cables differ in type, so the R/L ratio is never
    # uniform and the Assumption-1 check takes its determinant path.
    first = x.pick(3)
    second = (first + 1 + x.pick(2)) % 3
    types = [first, second] + [x.pick(3) for _ in range(n_loads - 2)]
    edges, prev = [], "sg"
    for load, t in zip(loads, types):
        edges.append({"n": prev, "k": load, "segments": [
            {"cable": AC_CABLES[t],
             "length_m": round(x.uniform(10, 200), 1)}]})
        prev = load

    vscs = []
    for j, i in enumerate(vsc_at):
        node = f"vsc{j + 1}"
        edges.append({"n": loads[i], "k": node, "segments": [
            {"cable": AC_CABLES[x.pick(3)],
             "length_m": round(x.uniform(5, 60), 1)}], "virtual_at": node})
        vscs.append({
            "node": node, "s_rated_va": 22000.0, "v_rated_v": 800.0,
            "c_dc_f": 0.0031, "c_extra_f": 0.0,
            # unequal setpoints: consecutive VSCs 1-3 V apart
            "v_dc_star_v": round(740.0 + 2.0 * j + y.uniform(-1.0, 1.0), 3),
            "l_virtual_h": 0.0023, "r_virtual_ohm": 0.0,
            "control": {"k_p": round(y.uniform(0.02, 0.05), 5),
                        "k_d": round(y.uniform(0.001, 0.01), 5),
                        "tau_kd_s": 0.01},
            "pv": None})
    dc_edges = [{"n": a["node"], "k": b["node"], "cable": DC_CABLE,
                 "length_m": round(x.uniform(20, 100), 1), "loop": True}
                for a, b in zip(vscs, vscs[1:])]
    ac_nodes = ([["sg", "sm"]] + [[v["node"], "vsc"] for v in vscs]
                + [[n, "load_ac"] for n in loads])
    return {"scenario": f"feeder_{n_loads}x{vsc_every}", "base": dict(BASE),
            "sg": dict(SG), "vscs": vscs, "ac_nodes": ac_nodes,
            "ac_edges": edges, "dc_edges": dc_edges}


class FeederStream:
    """Endless seeded stream of feeder scenarios.

    Operation ``i`` takes shape ``SHAPES[i % 6]`` and the ``i // 6``-th point
    of that shape's low-discrepancy sequences, so every topology in a run is
    new and the shapes stay balanced in any prefix.  The cable sequence is
    the same for every seed: cable types and lengths set the model order,
    and with it most of an operation's cost, so sharing them keeps runs with
    different seeds comparable.  The seed shifts the setpoints and gains.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        fixed = random.Random(0)
        self._shift = {shape: (tuple(fixed.random() for _ in _ALPHA),
                               tuple(rng.random() for _ in _ALPHA))
                       for shape in SHAPES}
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        i = self._index
        self._index += 1
        shape = SHAPES[i % len(SHAPES)]
        cables, operating = self._shift[shape]
        k = i // len(SHAPES)
        return feeder_dict(Point(cables, k), Point(operating, k), *shape)

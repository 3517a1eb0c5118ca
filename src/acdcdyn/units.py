"""Device and controller transfer-function factories.

Each factory maps a physical parameter record and the system per-unit base
to the small-signal transfer function of the device in that base:
synchronous-machine swing integrator, VSC DC-link capacitor, governor droop
with washout damping, and the dual-port grid-forming (GFM)
frequency/DC-voltage controller.  The PV source enters as a per-unit
sensitivity k_pv, re-based by convert_k_pv.  Per-unit bases are always
explicit; nothing is normalized implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lti import Polynomial, RationalTF, check_fields


@dataclass(frozen=True)
class PerUnitBase:
    """Explicit per-unit base set."""

    S_base: float        # VA
    V_base_ac: float     # V
    V_base_dc: float     # V
    omega_base: float    # rad/s

    def __post_init__(self):
        check_fields(self, positive=("S_base", "V_base_ac", "V_base_dc",
                                     "omega_base"))


@dataclass(frozen=True)
class SgParams:
    """Synchronous generator with turbine/governor."""

    S_n: float           # VA
    P_max: float         # W
    H: float             # s
    k_tg: float          # p.u. governor droop gain
    k_omega: float       # p.u. damping gain
    T1: float            # s
    T2: float            # s

    def __post_init__(self):
        check_fields(self, positive=("S_n", "P_max", "H", "T1", "T2"),
                     real=("k_tg", "k_omega"))
        if self.P_max > self.S_n:
            raise ValueError("P_max must not exceed S_n")


@dataclass(frozen=True)
class GfmCtrlParams:
    """Dual-port GFM controller: omega = omega* + (k_p + k_d s/(tau s+1)) dv."""

    k_p: float           # p.u.
    k_d: float           # p.u.
    tau_kd: float        # s (0 flags the improper ideal differentiator)

    def __post_init__(self):
        check_fields(self, positive=("k_p",), nonnegative=("k_d", "tau_kd"))


@dataclass(frozen=True)
class VscParams:
    """One VSC: DC link, GFM controller and the PV source on its DC bus.
    The DC-voltage setpoint is part of the operating point and lives in
    `HybridGraph.v_dc_star`; the virtual output impedance is part of the
    network and lives on the `AcEdge` that leaves the VSC."""

    C_dc: float          # F
    control: GfmCtrlParams
    k_pv: float | None = None   # p.u., system base; None: no PV
    c_extra: float = 0.0        # F, bus capacitance on the same DC node

    def __post_init__(self):
        check_fields(self, positive=("C_dc",), nonnegative=("c_extra",),
                     real=("k_pv",), optional=("k_pv",))


def sm_tf(p: SgParams, base: PerUnitBase) -> RationalTF:
    """Swing integrator 1/(2H s) of the machine base S_n, with its power
    input re-based to the system base: (S_base/S_n)/(2H s)."""
    return RationalTF(Polynomial([base.S_base / p.S_n]),
                      Polynomial([0.0, 2.0 * p.H]))


def vsc_dclink_tf(p: VscParams, v_dc_star: float,
                  base: PerUnitBase) -> RationalTF:
    """DC-link capacitor energy balance 1/((C_dc + c_extra) v_dc* s) at the
    DC-voltage setpoint `v_dc_star` (V), mapping per-unit power to per-unit
    DC voltage."""
    coeff = (p.C_dc + p.c_extra) * v_dc_star * (base.V_base_dc / base.S_base)
    return RationalTF(Polynomial([1.0]), Polynomial([0.0, coeff]))


def convert_k_pv(k_pv: float, src: PerUnitBase, dst: PerUnitBase) -> float:
    """Re-express a per-unit DC-voltage/power sensitivity in another base."""
    return k_pv * (dst.V_base_dc / src.V_base_dc) * (src.S_base / dst.S_base)


def governor_droop_tf(p: SgParams, base: PerUnitBase) -> RationalTF:
    """Droop-only governor -k_tg G1 G2 scaled from the machine power base
    (P_max) to the system base; the steady-state gain is -k_tg P_max/S_base."""
    lag = RationalTF(Polynomial([1.0]),
                     Polynomial([1.0, p.T1]) * Polynomial([1.0, p.T2]))
    return (-p.k_tg * p.P_max / base.S_base) * lag


def sg_damping_tf(p: SgParams, base: PerUnitBase) -> RationalTF:
    """Damping-torque contribution -k_omega S_n/S_base passed through a
    washout s/(s + 1) with a 1 s time constant, so transient damping is
    retained without altering the governor's steady-state droop."""
    gain = -p.k_omega * p.S_n / base.S_base
    return RationalTF(Polynomial([0.0, gain]), Polynomial([1.0, 1.0]))


def gfm_ctrl_tf(p: GfmCtrlParams) -> RationalTF:
    """PD droop k_p + k_d s/(tau_kd s + 1); improper when tau_kd = 0."""
    num = Polynomial([p.k_p, p.k_p * p.tau_kd + p.k_d])
    den = Polynomial([1.0, p.tau_kd])
    return RationalTF(num, den)

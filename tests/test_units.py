import math
from dataclasses import replace

import pytest

from acdcdyn.units import (GfmCtrlParams, PerUnitBase, SgParams, VscParams,
                           convert_k_pv, gfm_ctrl_tf, governor_droop_tf,
                           sg_damping_tf, sm_tf, vsc_dclink_tf)

SG = SgParams(S_n=105e3, P_max=50e3, H=0.1417, k_tg=20.0, k_omega=0.5,
              T1=0.03, T2=0.1)
VSC = VscParams(C_dc=0.0031, control=GfmCtrlParams(0.025, 0.01, 0.01))
BASE = PerUnitBase(50e3, 400.0, 650.0, 2 * math.pi * 50.0)


class TestBases:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            PerUnitBase(0.0, 400.0, 650.0, 314.0)

    def test_sg_validation(self):
        with pytest.raises(ValueError):
            SgParams(50e3, 105e3, 0.1417, 20.0, 0.5, 0.03, 0.1)

    def test_vsc_validation(self):
        with pytest.raises(ValueError):
            VscParams(-0.0031, VSC.control)


class TestSm:
    def test_per_unit_gain(self):
        g = sm_tf(SG, BASE)
        # (S_base/S_n)/(2Hs): at s = j, magnitude (50/105)/(2H)
        assert abs(g(1j)) == pytest.approx(50.0 / 105.0 / (2 * 0.1417))


class TestVscDclink:
    def test_si_coefficient(self):
        # C v* dv/dt = p in SI: 1/(C_dc v* s) volts per watt, which the
        # per-unit map equals times S_base / V_base_dc
        def g_si(s):
            return 1.0 / (VSC.C_dc * 740.0 * s)

        g = vsc_dclink_tf(VSC, 740.0, BASE)
        for s in (1j, 0.3 + 2.0j, 50.0j, -4.0 + 0.5j, 1e-3):
            assert g(s) == pytest.approx(
                g_si(s) * BASE.S_base / BASE.V_base_dc, rel=1e-14)

    def test_per_unit_and_extra_cap(self):
        g = vsc_dclink_tf(replace(VSC, c_extra=0.0031), 740.0, BASE)
        coeff = 2 * 0.0031 * 740.0 * 650.0 / 50e3
        assert g(1j) == pytest.approx(1.0 / (coeff * 1j))

    def test_negative_extra_rejected(self):
        with pytest.raises(ValueError):
            replace(VSC, c_extra=-1.0)


class TestPv:
    def test_convert_roundtrip(self):
        src = PerUnitBase(18.2e3, 400.0, 650.0, BASE.omega_base)
        k = convert_k_pv(3.4581, src, BASE)
        assert k == pytest.approx(3.4581 * 18.2 / 50.0)
        assert convert_k_pv(k, BASE, src) == pytest.approx(3.4581)


class TestGovernor:
    def test_droop_dc_gain(self):
        g = governor_droop_tf(SG, BASE)
        assert g(0.0) == pytest.approx(-20.0)

    def test_full_formula_dc_gain(self):
        # droop plus washout damping, as build wires them: the damping
        # drops out in steady state
        g = governor_droop_tf(SG, BASE) + sg_damping_tf(SG, BASE)
        assert g(0.0) == pytest.approx(-20.0)

    def test_full_formula_hf_gain(self):
        g = governor_droop_tf(SG, BASE) + sg_damping_tf(SG, BASE)
        assert abs(g(1j * 1e6)) == pytest.approx(0.5 * 105.0 / 50.0, rel=1e-3)

    def test_damping_washout(self):
        g = sg_damping_tf(SG, BASE)
        assert g(0.0) == 0.0
        assert abs(g(1j * 1e4)) == pytest.approx(0.5 * 105.0 / 50.0, rel=1e-3)


class TestGfmCtrl:
    def test_dc_gain_is_kp(self):
        g = gfm_ctrl_tf(GfmCtrlParams(0.025, 0.01, 0.01))
        assert g(0.0) == pytest.approx(0.025)

    def test_hf_gain(self):
        g = gfm_ctrl_tf(GfmCtrlParams(0.025, 0.01, 0.01))
        assert abs(g(1j * 1e7)) == pytest.approx(0.025 + 0.01 / 0.01, rel=1e-3)

    def test_improper_when_tau_zero(self):
        g = gfm_ctrl_tf(GfmCtrlParams(0.025, 0.01, 0.0))
        assert not g.is_proper

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            GfmCtrlParams(-0.01, 0.01, 0.01)

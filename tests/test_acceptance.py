"""Acceptance suite: one test per criterion, each emitting a single
machine-readable PASS/FAIL line (run with `pytest -s` or check captured
stdout).  Tolerances and runtime budgets are stated inline."""

import contextlib
import math
import time

import numpy as np
import pytest

from acdcdyn import analysis
from acdcdyn.lti import dc_gain, fft_magnitude, step_response
from acdcdyn.network import (AcEdge, DcEdge, HybridGraph, NodeKind,
                             assemble_ac_laplacian, dc_edge_tf, kron_reduce,
                             kron_reduce_sequential)
from acdcdyn.system import build, nominal_dc_dispatch, steady_state
from conftest import preset

W0 = 2 * math.pi * 50.0


@contextlib.contextmanager
def criterion(n, label, budget_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {n} ({label}): FAIL")
        raise
    elapsed = time.time() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE CRITERION {n} ({label}): {verdict} "
          f"[{elapsed:.2f}s < {budget_s}s]")
    assert elapsed < budget_s


def _gain_map(model):
    G = dc_gain(model.ss)
    i = {n: j for j, n in enumerate(model.ss.input_names)}
    o = {n: j for j, n in enumerate(model.ss.output_names)}
    return G, i, o


def test_criterion_1_steady_state_sharing():
    with criterion(1, "steady-state sharing", 1.0):
        cfg = preset("islanded_pv")
        st = steady_state(cfg, 1.0)
        # effective droop ratio and PV share for k_p = 0.025
        assert 1.0 / st.kappa_pv == pytest.approx(50.35, rel=1e-3)
        assert 1.0 / st.kappa_tg == pytest.approx(20.0, rel=1e-12)
        assert st.dp_pv == pytest.approx(0.7157, rel=1e-3)
        # analytic steady state vs closed-loop dc gain, 1e-9
        G, i, o = _gain_map(build(cfg))
        j = i["p_load_load1"]
        assert abs(G[o["omega_vsc1"], j] - st.domega) < 1e-9
        assert abs(G[o["omega_sg"], j] - st.domega) < 1e-9
        assert abs(G[o["v_dc_vsc1"], j] - st.dv_dc["vsc1"]) < 1e-9
        assert abs(G[o["p_pv_vsc1"], j] - st.dp_pv) < 1e-9
        assert abs(G[o["p_tg_sg"], j] - st.dp_tg) < 1e-9
        # k_p = 0.05 halves the PV stiffness
        st2 = steady_state(preset("islanded_pv", {"k_p": 0.05}), 1.0)
        assert 1.0 / st2.kappa_pv == pytest.approx(25.17, rel=1e-3)


def test_criterion_2_islanded_stability_selections():
    with criterion(2, "islanded stability selections", 5.0):
        for k_p, k_d in ((0.025, 0.01), (0.025, 0.005), (0.05, 0.01)):
            m = build(preset("islanded_pv", {"k_p": k_p, "k_d": k_d}))
            assert analysis.stability(m).stable, (k_p, k_d)
        for k_p in (0.025, 0.05):
            bound = analysis.bound_islanded_kd(k_p)
            assert bound == pytest.approx(9.9040 * k_p, rel=1e-12)


def test_criterion_3_kron_oracle_equivalence():
    with criterion(3, "Kron oracle equivalence", 1.0):
        l_sm, r_sm = 0.080 * 0.004 / W0, 0.125 * 0.004
        l_vsc, r_vsc = 0.083 * 0.025 / W0, 0.868 * 0.025
        lv, V = 0.0023, 400.0
        g = HybridGraph(
            ac_nodes=(("sm", NodeKind.SM), ("vsc", NodeKind.VSC),
                      ("load", NodeKind.LOAD_AC)),
            ac_edges=(AcEdge("sm", "load", l_sm, r_sm),
                      AcEdge("load", "vsc", l_vsc, r_vsc, l_virt_k=lv)),
            dc_edges=(), V_ac_star=V, omega_star=W0,
            v_dc_star={"vsc": 650.0})
        kl = (lv + l_vsc) / l_vsc
        rho_s, rho_v = r_sm / l_sm, r_vsc / l_vsc

        def gsm(s):
            return s * s + 2 * rho_s * s + rho_s**2 + W0**2

        def gvsc(s):
            return s * s + 2 * rho_v * s + rho_v**2 + (kl * W0)**2

        for w in np.logspace(-2, 4, 100):
            s = 1j * w
            L = assemble_ac_laplacian(g, s)
            Gc, Gl = kron_reduce(L, 2, s)
            den = l_vsc * gvsc(s) + l_sm * kl * gsm(s)
            G_line = V**2 * W0 * kl / den
            assert abs(Gc[0, 0] - G_line) <= 1e-9 * abs(G_line)
            assert abs(Gc[0, 1] + G_line) <= 1e-9 * abs(G_line)
            assert abs(Gl[0, 0] - l_vsc * gvsc(s) / den) <= 1e-9
            assert abs(Gl[1, 0] - kl * l_sm * gsm(s) / den) <= 1e-9


def test_criterion_4_dc_link_symmetry():
    with criterion(4, "DC-link symmetry and dispatch sign", 5.0):
        e = DcEdge("a", "b", 2.65e-5, 0.271)
        # equal setpoints: no loss injection, antisymmetric flow
        assert dc_edge_tf(e, 0.0).num.is_zero()
        v = 740.0
        for s in (0.0, 1j * 5.0, 2.0 + 40.0j):
            p_nk = dc_edge_tf(e, v)(s)      # acts on (v_n - v_k)
            p_kn = dc_edge_tf(e, v)(s)      # acts on (v_k - v_n)
            assert p_nk == p_kn             # same weight, opposite argument
        # scenario (c): raising/lowering v*_1 around v*_2 flips P_ac,1
        hi = nominal_dc_dispatch(preset("parallel_ac_dc"))          # 1.0037
        lo = nominal_dc_dispatch(
            preset("parallel_ac_dc", {"v_dc_star_pu": (0.9975, 1.0)}))
        assert hi["p_ac"]["vsc1"] < 0.0 < lo["p_ac"]["vsc1"]
        assert hi["edge_flows"][("vsc1", "vsc2")] > 0.0
        assert lo["edge_flows"][("vsc1", "vsc2")] < 0.0


def test_criterion_5_tau_kd_noise_tradeoff():
    with criterion(5, "tau_kd noise trade-off", 5.0):
        hf = []
        for tau in (0.005, 0.01, 0.02, 0.1):
            m = build(preset("islanded_pv", {"tau_kd": tau}))
            t1 = analysis.bode(m, "n_vsc1", "omega_vsc1",
                               f_min=1000.0, f_max=1001.0, points=2)
            hf.append(t1.mag_db[0])
            t2 = analysis.bode(m, "n_vsc1", "v_dc_vsc1",
                               f_min=10.0, f_max=1000.0, points=3)
            assert t2.mag_db[-1] < t2.mag_db[0]   # v_dc rolls off
        assert all(a > b for a, b in zip(hf, hf[1:]))  # strictly decreasing


def _lvdc_resonance_stats(k_d_1):
    m = build(preset("lvdc_async", {"k_d_1": k_d_1}))
    out = {}
    for ch in ("v_dc_vsc1", "omega_vsc1", "omega_vsc2"):
        t = analysis.bode(m, "p_load_load1", ch,
                          f_min=0.1, f_max=20.0, points=400)
        mag = 10.0 ** (t.mag_db / 20.0)
        centroid = float(np.sum(t.f_hz * mag**2) / np.sum(mag**2))
        peaks = analysis.interior_peaks(t.f_hz, t.mag_db)
        out[ch] = {"centroid": centroid, "peaks": peaks,
                   "mag_peak": max(p[1] for p in peaks)}
    return out


def test_criterion_6_kd_resonance_trends():
    with criterion(6, "k_d resonance trends", 30.0):
        # scenario (a): lowering k_d raises the omega_vsc resonance frequency
        f_hi = analysis.resonance_peak(analysis.bode(
            build(preset("islanded_pv", {"k_d": 0.01})),
            "p_load_load1", "omega_vsc1"))[0]
        f_lo = analysis.resonance_peak(analysis.bode(
            build(preset("islanded_pv", {"k_d": 0.005})),
            "p_load_load1", "omega_vsc1"))[0]
        assert f_lo > f_hi
        # scenario (b): sweep k_d_1
        stats = [_lvdc_resonance_stats(kd)
                 for kd in (0.001, 0.01, 0.05, 0.1)]
        cen = [s["v_dc_vsc1"]["centroid"] for s in stats]
        assert all(a > b for a, b in zip(cen, cen[1:]))  # peak shift down
        mag_v = [s["v_dc_vsc1"]["mag_peak"] for s in stats]
        assert all(a > b for a, b in zip(mag_v, mag_v[1:]))
        mag_2 = [s["omega_vsc2"]["mag_peak"] for s in stats]
        assert all(a > b for a, b in zip(mag_2, mag_2[1:]))
        mag_1 = [s["omega_vsc1"]["mag_peak"] for s in stats]
        assert all(a <= b for a, b in zip(mag_1, mag_1[1:]))
        # large k_d_1 produces a sub-1-Hz resonance absent at small k_d_1
        assert any(f < 1.0 for f, _ in stats[-1]["v_dc_vsc1"]["peaks"])
        assert all(f > 1.0 for f, _ in stats[0]["v_dc_vsc1"]["peaks"])


def test_criterion_7_async_steady_state_pinning():
    with criterion(7, "async steady-state pinning", 1.0):
        m = build(preset("lvdc_async", {"r_dc": 0.0}))
        G, i, o = _gain_map(m)
        jp, jw = i["p_load_load1"], i["omega_pg"]
        assert abs(G[o["omega_vsc2"], jp]) < 1e-9
        for ch in ("v_dc_vsc1", "v_dc_vsc2"):
            assert G[o[ch], jw] == pytest.approx(1.0 / 0.025, rel=1e-9)


def test_criterion_8_time_frequency_consistency():
    with criterion(8, "time/frequency consistency", 30.0):
        # step convergence to the analytic steady state, scenario (a)
        cfg = preset("islanded_pv")
        dp = 2500.0 / 50e3
        ts = step_response(build(cfg).ss, "p_load_load1", 30.0, 1e-3)
        st = steady_state(cfg, dp)
        assert abs(ts.channels["omega_vsc1"][-1] * dp - st.domega) < 1e-4
        assert abs(ts.channels["omega_sg"][-1] * dp - st.domega) < 1e-4
        assert abs(ts.channels["v_dc_vsc1"][-1] * dp
                   - st.dv_dc["vsc1"]) < 1e-4
        # FFT of scenario (b) steps reproduces the k_d_1 peak-shift ordering
        cents = []
        for kd in (0.001, 0.01, 0.05, 0.1):
            mm = build(preset("lvdc_async", {"k_d_1": kd}))
            tb = step_response(mm.ss, "p_load_load1", 80.0, 1e-3)
            sp = fft_magnitude(tb, "v_dc_vsc1")
            band = (sp.freq_hz >= 0.1) & (sp.freq_hz <= 20.0)
            f, w = sp.freq_hz[band], sp.magnitude[band] ** 2
            cents.append(float(np.sum(f * w) / np.sum(w)))
        assert all(a > b for a, b in zip(cents, cents[1:]))


def test_criterion_9_structural_numerics_suite():
    with criterion(9, "structural/numerics suite", 60.0):
        rng = np.random.default_rng(20260823)
        # random connected AC graphs: row sums, orientation invariance,
        # joint-vs-sequential Kron agreement
        for trial in range(25):
            n_conv = int(rng.integers(2, 4))
            n_load = int(rng.integers(1, 3))
            names = [f"c{i}" for i in range(n_conv)] + \
                    [f"l{i}" for i in range(n_load)]
            kinds = [NodeKind.SM] * n_conv + [NodeKind.LOAD_AC] * n_load
            edges = []
            for a in range(1, len(names)):
                b = int(rng.integers(0, a))
                l = float(rng.uniform(1e-6, 1e-4))
                r = float(rng.uniform(1e-4, 1e-1))
                edges.append(AcEdge(names[a], names[b], l, r))
            g = HybridGraph(tuple(zip(names, kinds)), tuple(edges), (),
                            400.0, W0)
            g_flip = HybridGraph(
                g.ac_nodes,
                tuple(AcEdge(e.k, e.n, e.l, e.r) for e in g.ac_edges), (),
                400.0, W0)
            for w in rng.uniform(0.1, 1e3, size=3):
                s = 1j * float(w)
                L = assemble_ac_laplacian(g, s)
                Lf = assemble_ac_laplacian(g_flip, s)
                scale = np.max(np.abs(L))
                assert np.max(np.abs(L.sum(axis=1))) < 1e-9 * scale
                assert np.allclose(L, Lf, rtol=0, atol=1e-12 * scale)
                Gc1, Gl1 = kron_reduce(L, n_conv)
                Gc2, Gl2 = kron_reduce_sequential(L, n_conv)
                assert np.max(np.abs(Gc1 - Gc2)) < 1e-10 * np.max(np.abs(Gc1))
                assert np.max(np.abs(Gl1 - Gl2)) < 1e-10
        # ZOH exactness: first-order lag step response vs closed form
        from acdcdyn.lti import RationalTF, freq_response, tf_to_ss
        for a in (0.3, 2.0, 17.0):
            ss = tf_to_ss(RationalTF.from_coeffs([a], [a, 1.0]))
            ts = step_response(ss, "u", 2.0, 1e-3)
            assert np.max(np.abs(ts.channels["y"]
                                 - (1 - np.exp(-a * ts.t)))) < 1e-10
        # tf <-> ss frequency-response agreement on random stable TFs
        for trial in range(25):
            deg = int(rng.integers(1, 5))
            poles_ = -rng.uniform(0.1, 50.0, size=deg)
            den = np.atleast_1d(np.poly(poles_))[::-1]
            num = rng.uniform(-5.0, 5.0, size=int(rng.integers(1, deg + 1)))
            tf = RationalTF.from_coeffs(list(num), list(den))
            if tf.num.is_zero():
                continue
            ss = tf_to_ss(tf)
            w = np.logspace(-2, 3, 9)
            fr = freq_response(ss, "u", "y", w)
            for k, wk in enumerate(w):
                ref = tf(1j * wk)
                assert abs(fr.values[k] - ref) <= \
                    1e-9 * max(1.0, abs(ref))

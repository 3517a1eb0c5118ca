import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdcdyn import analysis, lti, system
from acdcdyn.lti import RationalTF, tf_to_ss
from acdcdyn.system import build
from conftest import PERFBENCH, preset


@pytest.fixture(scope="module")
def islanded_model():
    return build(preset("islanded_pv"))


class TestBode:
    def test_table_shape_and_grid(self, islanded_model):
        t = analysis.bode(islanded_model, "p_load_load1", "omega_vsc1",
                          points=50)
        assert len(t.f_hz) == 50
        assert t.f_hz[0] == pytest.approx(1e-2 / (2 * math.pi))
        assert t.f_hz[-1] == pytest.approx(1e4 / (2 * math.pi))

    def test_unknown_channel(self, islanded_model, monkeypatch):
        # the names are looked up before the frequency grid is solved
        def solve(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", solve)
        for channel, kind in ((("bogus", "omega_vsc1"), "input"),
                              (("p_load_load1", "bogus"), "output")):
            with pytest.raises(KeyError) as info:
                analysis.bode(islanded_model, *channel)
            assert info.value.args[0] == f"unknown {kind} channel 'bogus'"

    @pytest.mark.parametrize("band, message", [
        ({"f_min": 0.0}, "f_min must be finite and positive, got 0.0"),
        ({"f_min": math.nan}, "f_min must be finite and positive, got nan"),
        ({"f_max": math.inf}, "f_max must be finite and positive, got inf"),
        ({"f_min": 10.0, "f_max": 1.0}, "the band needs f_min < f_max"),
        ({"points": 0}, "points must be a positive int"),
        ({"points": 2.5}, "points must be a positive int"),
        ({"points": True}, "points must be a positive int"),
    ])
    def test_band_checks(self, islanded_model, band, message):
        with pytest.raises(ValueError, match=message):
            analysis.bode(islanded_model, "p_load_load1", "omega_vsc1",
                          **band)

    def test_static_gain_flat(self):
        ss = tf_to_ss(RationalTF.from_coeffs([2.0], [1.0]), "u", "y")
        t = analysis.bode(ss, "u", "y", points=2)
        assert np.allclose(t.mag_db, 20 * math.log10(2.0))


class TestBenchmarkTrace:
    def test_traced_kernels_keep_their_attributes(self, monkeypatch):
        # the benchmark's tracer reads the arguments and results of these
        # three calls: a change to what they take or return fails here,
        # not only in a traced benchmark run
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            model = system.build(preset("islanded_pv"))
            analysis.bode(model, "p_load_load1", "omega_vsc1", points=20)
            lti.step_response(model.ss, "p_load_load1", 1.0, 0.01)
        finally:
            tracer.uninstall()
        spans = {s.name: s for s in tracer.spans}
        n, p = model.ss.n_states, model.ss.n_outputs
        for name, attr, value in [
                ("system.build", "n_states", n),
                ("lti.freq_response", "flop", 20 * n ** 3),
                ("lti.step_response", "flop", 100 * n * (n + p))]:
            assert spans[name].ok and spans[name].attrs[attr] == value, name


class TestStability:
    def test_islanded_stable(self, islanded_model):
        r = analysis.stability(islanded_model)
        assert r.stable
        assert all(not p.structural for p in r.nonstructural_poles)

    def test_damping_in_unit_interval(self, islanded_model):
        z = analysis.dominant_damping(analysis.stability(islanded_model))
        assert 0.0 < z < 1.0


class TestBounds:
    def test_islanded_bound_scales_with_kp(self):
        assert analysis.bound_islanded_kd(0.05) == pytest.approx(
            2 * analysis.bound_islanded_kd(0.025))

    def test_bound_infinite_at_mpp(self):
        assert analysis.bound_islanded_kd(0.025, k_pv=0.0) == math.inf

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            analysis.bound_islanded_kd(-0.025)

    @pytest.mark.parametrize("kwargs, error, name", [
        ({"k_p": math.nan}, ValueError, "k_p"),
        ({"k_p": True}, TypeError, "k_p"),
        ({"C_dc_pu": math.inf}, ValueError, "C_dc_pu"),
        ({"C_dc_pu": 0.0}, ValueError, "C_dc_pu"),
        ({"k_pv": -math.inf}, ValueError, "k_pv"),
        ({"k_pv": "1"}, TypeError, "k_pv"),
    ])
    def test_bound_checks_each_argument(self, kwargs, error, name):
        # NaN used to pass every comparison and come back as the bound
        with pytest.raises(error, match=f"^{name} must be"):
            analysis.bound_islanded_kd(**{"k_p": 0.025, **kwargs})

    def test_ratio_bounds_strict(self):
        r = analysis.check_ratio_bounds(preset("lvdc_async", {"k_d_2": 0.012}))
        assert r == {"vsc1": True, "vsc2": True}
        # boundary is excluded (strict inequality)
        b1 = preset("lvdc_async").ratio_bounds["vsc1"]
        r2 = analysis.check_ratio_bounds(
            preset("lvdc_async", {"k_d_1": b1 * 0.025}))
        assert r2 == {"vsc1": False, "vsc2": True}
        assert analysis.check_ratio_bounds(preset("islanded_pv")) == {}

    def test_ratio_bounds_validation(self):
        with pytest.raises(ValueError, match="not VSC nodes"):
            preset("lvdc_async", {"ratio_bounds": {"load1": 0.2}})


class TestPeaks:
    def test_interior_peak_quadratic_refinement(self):
        x = np.logspace(0, 2, 61)
        y = -((np.log10(x) - 1.0) ** 2)  # maximum at x = 10
        f, m = analysis.interior_peak(x, y)
        assert f == pytest.approx(10.0, rel=1e-6)
        assert m == pytest.approx(0.0, abs=1e-9)

    def test_monotone_raises(self):
        x = np.linspace(1, 10, 20)
        with pytest.raises(analysis.NoInteriorPeak):
            analysis.interior_peak(x, x.copy())

    def test_interior_peaks_finds_both(self):
        x = np.logspace(0, 2, 200)
        lx = np.log10(x)
        y = np.exp(-((lx - 0.5) ** 2) / 0.01) + \
            0.5 * np.exp(-((lx - 1.5) ** 2) / 0.01)
        pk = analysis.interior_peaks(x, y)
        assert len(pk) == 2
        assert pk[0][0] == pytest.approx(10 ** 0.5, rel=1e-3)
        assert pk[1][0] == pytest.approx(10 ** 1.5, rel=1e-3)

    def test_resonance_peak_on_model(self, islanded_model):
        t = analysis.bode(islanded_model, "p_load_load1", "omega_vsc1")
        f, _ = analysis.resonance_peak(t)
        assert 0.5 < f < 20.0

    def test_largest_refined_peak_not_largest_sample(self):
        # the sample at x = 10 (1.0) exceeds the one at 1e4 (0.95), but the
        # 3-point fit around 1e4 peaks at 10^4.4375 with 1.0266 > 1.0
        x = np.logspace(0, 6, 7)
        y = np.array([0.0, 1.0, 0.0, 0.2, 0.95, 0.9, 0.0])
        f, m = analysis.interior_peak(x, y)
        assert f == pytest.approx(10 ** 4.4375, rel=1e-12)
        assert m == pytest.approx(1.0265625, rel=1e-12)
        assert analysis.interior_peaks(x, y)[0] == pytest.approx((10.0, 1.0))

    def test_resonance_peak_is_largest_refined_on_coarse_band(self):
        # at 25 points the largest sample of this channel sits at the
        # 24.7 Hz peak (2.35 dB), while the 6.00 Hz one refines to 3.88 dB
        m = build(preset("parallel_ac_dc", {"k_d": 0.005}))
        t = analysis.bode(m, "p_load_load1", "p_ac_sg", f_min=0.05,
                          f_max=500.0, points=25)
        peaks = analysis.interior_peaks(t.f_hz, t.mag_db)
        assert [round(f, 2) for f, _ in peaks] == [1.23, 6.0, 24.7]
        assert t.mag_db.max() < peaks[1][1]
        f, mag = analysis.resonance_peak(t)
        assert (f, mag) == peaks[1]
        assert f == pytest.approx(6.0013, rel=1e-4)
        assert mag == pytest.approx(3.8793, abs=1e-3)

    @given(st.lists(st.integers(-3, 3) | st.floats(-5.0, 5.0),
                    min_size=3, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_peak_is_the_first_largest_of_peaks(self, ys):
        # small integers make ties: symmetric triples refine to the sample
        x = np.logspace(-1, 3, len(ys))
        y = np.array(ys, dtype=float)
        peaks = analysis.interior_peaks(x, y)
        if not peaks:
            with pytest.raises(analysis.NoInteriorPeak):
                analysis.interior_peak(x, y)
            return
        top = max(m for _, m in peaks)
        assert analysis.interior_peak(x, y) == \
            next(p for p in peaks if p[1] == top)


class TestSweep:
    def test_grid_and_error_isolation(self):
        def builder(k_d):
            if k_d < 0:
                raise ValueError("bad gain")
            return preset("islanded_pv", {"k_d": k_d})

        res = analysis.sweep(builder, [-1.0, 0.005, 0.01],
                             ("p_load_load1", "omega_vsc1"))
        assert [pt.value for pt in res] == [-1.0, 0.005, 0.01]
        assert res[0].error and res[0].stable is None
        assert all(map(math.isnan, res[0].peak))
        for pt in res[1:]:
            assert pt.stable is True and not pt.error
            f, m = pt.peak
            assert np.isfinite(f) and np.isfinite(m)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="values must be non-empty"):
            analysis.sweep(lambda value: None, [],
                           ("p_load_load1", "omega_vsc1"))

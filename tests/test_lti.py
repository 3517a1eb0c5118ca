import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, matrix_balance

import acdcdyn.lti as lti
import acdcdyn.system as system
from acdcdyn.lti import (AlgebraicLoop, ImproperTF, NoDcGain, PoleHit,
                         Polynomial, RationalTF, SingularAtFrequency,
                         StateSpace, TimeSeries, TooShort, UnstableWarning,
                         compose, dc_gain, fft_magnitude, freq_response,
                         integrator, poles, poly_from_roots, series,
                         step_response, tf_eval, tf_to_ss)
from acdcdyn.system import build, config_from_dict, _load_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PRESETS = ("islanded_pv", "lvdc_async", "parallel_ac_dc")


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False)


class TestPolynomial:
    def test_trim_and_degree(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)

    def test_eval_horner(self):
        p = Polynomial([1.0, -3.0, 2.0])  # 1 - 3s + 2s^2
        assert p(2.0) == pytest.approx(1 - 6 + 8)

    def test_arithmetic(self):
        a = Polynomial([1.0, 1.0])
        b = Polynomial([0.0, 2.0])
        assert (a + b).coeffs == (1.0, 3.0)
        assert (a - b).coeffs == (1.0, -1.0)
        assert (a * b).coeffs == (0.0, 2.0, 2.0)

    def test_roots_roundtrip(self):
        p = poly_from_roots([-1.0, -2.0], leading=3.0)
        r = sorted(p.roots().real)
        assert r == pytest.approx([-2.0, -1.0])
        assert p.coeffs[-1] == pytest.approx(3.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Polynomial([1.0, math.nan])

    @given(st.lists(coeff, min_size=1, max_size=5),
           st.lists(coeff, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_mul_matches_eval(self, ca, cb):
        a, b = Polynomial(ca), Polynomial(cb)
        s = 0.7 + 0.3j
        assert (a * b)(s) == pytest.approx(a(s) * b(s), rel=1e-9, abs=1e-9)


class TestRationalTF:
    def test_eval_and_pole_hit(self):
        g = RationalTF.from_coeffs([1.0], [1.0, 1.0])  # 1/(s+1)
        assert tf_eval(g, 0.0) == pytest.approx(1.0)
        with pytest.raises(PoleHit):
            tf_eval(g, -1.0)

    def test_arithmetic_pointwise(self):
        a = RationalTF.from_coeffs([1.0], [1.0, 1.0])
        b = RationalTF.from_coeffs([2.0, 1.0], [1.0, 0.5])
        s = 0.2 + 1.3j
        assert (a + b)(s) == pytest.approx(a(s) + b(s))
        assert (a * b)(s) == pytest.approx(a(s) * b(s))
        assert (a / b)(s) == pytest.approx(a(s) / b(s))
        assert (a - b)(s) == pytest.approx(a(s) - b(s))

    def test_simplify_cancels_common_root(self):
        num = Polynomial([1.0, 1.0]) * Polynomial([2.0, 1.0])
        den = Polynomial([1.0, 1.0]) * Polynomial([3.0, 1.0])
        g = RationalTF(num, den).simplify()
        assert g.num.degree == 1
        assert g.den.degree == 1
        assert g(1j) == pytest.approx((2.0 + 1j) / (3.0 + 1j))

    def test_is_proper(self):
        assert RationalTF.from_coeffs([1.0, 1.0], [1.0, 1.0]).is_proper
        assert not RationalTF.from_coeffs([0.0, 0.0, 1.0], [1.0, 1.0]).is_proper

    def test_zero_den_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(Polynomial([1.0]), Polynomial([0.0]))


class TestStateSpace:
    def test_static(self):
        ss = StateSpace.static([[2.0, -1.0]], ("a", "b"), ("y",))
        assert ss.n_states == 0
        assert ss.D.shape == (1, 2)

    def test_tf_to_ss_improper(self):
        with pytest.raises(ImproperTF):
            tf_to_ss(RationalTF.from_coeffs([0.0, 0.0, 1.0], [1.0, 1.0]))

    @given(st.lists(coeff, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_tf_ss_freq_agreement(self, num):
        den = [2.0, 3.0, 1.5, 1.0][: max(len(num), 2)]
        tf = RationalTF(Polynomial(num), Polynomial(den))
        if tf.num.is_zero():
            return
        ss = tf_to_ss(tf)
        w = np.logspace(-1, 2, 7)
        fr = freq_response(ss, w)
        for i, wi in enumerate(w):
            ref = tf(1j * wi)
            assert fr.values[i, 0, 0] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_integrator(self):
        ss = integrator(3.0)
        fr = freq_response(ss, np.array([2.0]))
        assert fr.values[0, 0, 0] == pytest.approx(3.0 / 2j)


def lapack_balance(last):
    """``scipy.linalg.matrix_balance`` of the companion matrix with ones on
    the superdiagonal and ``last`` as its last row."""
    n = len(last)
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1] = last
    with warnings.catch_warnings():
        # SciPy casts scale factors beyond the int range while splitting
        # off the (here empty) permutation.
        warnings.simplefilter("ignore", RuntimeWarning)
        A_b, T = matrix_balance(A, permute=False)
    return A_b, T


def assert_balanced_like_lapack(tf, ss):
    """``ss = tf_to_ss(tf)`` is the controllable-canonical realization
    scaled by the T that LAPACK xGEBAL (job 'S') picks, bit for bit."""
    den = np.asarray(tf.den.coeffs) / tf.den.coeffs[-1]
    num = np.asarray(tf.num.coeffs) / tf.den.coeffs[-1]
    n = len(den) - 1
    if n == 0:
        return
    b = np.zeros(n + 1)
    b[:len(num)] = num
    A_b, T = lapack_balance(-den[:n])
    t = np.diag(T)
    assert np.array_equal(ss.A, A_b)
    assert np.array_equal(ss.B[:, 0], np.eye(n)[-1] / t)
    assert np.array_equal(ss.C[0], (b[:n] - den[:n] * b[n]) * t)


nonzero_coeff = st.builds(
    lambda sign, mant, exp: sign * mant * 10.0 ** exp,
    st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99),
    st.integers(-300, 300))


class TestBalance:
    def test_lapack_on_every_build_realization(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from feeder import FeederStream

        seen = []

        def checked(tf, *args, **kwargs):
            ss = tf_to_ss(tf, *args, **kwargs)
            assert_balanced_like_lapack(tf, ss)
            seen.append(tf.den.degree)
            return ss

        monkeypatch.setattr(system, "tf_to_ss", checked)
        cfgs = [_load_preset(name) for name in PRESETS]
        cfgs += itertools.islice(FeederStream(1), 72)
        for data in cfgs:
            try:
                build(config_from_dict(data))
            except ValueError:
                pass             # five feeders fail in the symbolic Kron path
        assert len(seen) > 2000
        assert max(seen) >= 90

    @given(st.lists(st.one_of(st.just(0.0), nonzero_coeff),
                    min_size=1, max_size=100))
    @example([1e-150, 0.0, 1e150])
    @example([-1e150] + [0.0] * 98 + [1e-150])
    @example([0.0, 0.0, 0.0])
    @example([0.0, -3.4e-291])              # at xGEBAL's safe-range guards
    @example([0.0, 9.6e-296])
    @example([3e290, 0.0, 1e-300, 1.0])
    @settings(max_examples=200, deadline=None)
    def test_lapack_on_wide_coefficient_spans(self, last):
        sup, row, scale = lti._balance_companion(list(last))
        n = len(last)
        A = np.zeros((n, n))
        A[np.arange(n - 1), np.arange(1, n)] = sup
        A[-1] = row
        A_b, T = lapack_balance(last)
        assert np.array_equal(A, A_b)
        assert np.array_equal(np.array(scale), np.diag(T))


class TestCompose:
    def test_series_equals_product(self):
        g1 = tf_to_ss(RationalTF.from_coeffs([1.0], [1.0, 1.0]))
        g2 = tf_to_ss(RationalTF.from_coeffs([2.0], [1.0, 0.5]))
        ss = series(g1, g2)
        w = np.array([0.5, 5.0])
        fr = freq_response(ss, w)
        for i, wi in enumerate(w):
            ref = (1.0 / (1j * wi + 1)) * (2.0 / (0.5j * wi + 1))
            assert fr.values[i, 0, 0] == pytest.approx(ref, rel=1e-9)

    def test_negative_feedback(self):
        g = tf_to_ss(RationalTF.from_coeffs([4.0], [1.0, 1.0]), "e", "y")
        ss = compose({"g": g}, [("g.e", "r", 1.0), ("g.e", "g.y", -1.0)],
                     ["r"], ["g.y"])
        # closed loop 4/(s+5)
        fr = freq_response(ss, np.array([1.0]))
        assert fr.values[0, 0, 0] == pytest.approx(4.0 / (1j + 5.0), rel=1e-9)

    def test_algebraic_loop_detected(self):
        g = StateSpace.static([[1.0]], ("u",), ("y",))
        with pytest.raises(AlgebraicLoop):
            compose({"g": g}, [("g.u", "g.y", 1.0)], [], ["g.y"])

    def test_unknown_channel(self):
        g = integrator(1.0, "u", "y")
        with pytest.raises(KeyError):
            compose({"g": g}, [("g.bogus", "r", 1.0)], ["r"], ["g.y"])


class TestPoles:
    def test_structural_tagging_single_integrator(self):
        ss = integrator(1.0)
        ps = poles(ss)
        assert len(ps) == 1 and ps[0].structural

    def test_defective_double_integrator_not_structural(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        ss = StateSpace(A, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]],
                        ("u",), ("y",))
        ps = poles(ss)
        assert sum(p.structural for p in ps) == 1  # nullity of A is 1

    def test_stable_poles_untagged(self):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [2.0, 3.0, 1.0]))
        assert not any(p.structural for p in poles(ss))


class TestDcGain:
    def test_matches_inverse(self):
        ss = tf_to_ss(RationalTF.from_coeffs([3.0, 1.0], [2.0, 3.0, 1.0]))
        assert dc_gain(ss)[0, 0] == pytest.approx(1.5)

    def test_integrator_raises(self):
        with pytest.raises(NoDcGain):
            dc_gain(integrator(1.0))

    def test_structural_zero_with_vanishing_residue(self):
        # x1' = -x1 + x2, x2' = 0 (unforced, unobserved reference mode)
        A = np.array([[-1.0, 1.0], [0.0, 0.0]])
        ss = StateSpace(A, [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]],
                        ("u",), ("y",))
        assert dc_gain(ss)[0, 0] == pytest.approx(1.0)

    def test_driven_integrator_raises(self):
        A = np.array([[-1.0, 1.0], [0.0, 0.0]])
        ss = StateSpace(A, [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]],
                        ("u",), ("y",))
        with pytest.raises(NoDcGain):
            dc_gain(ss)


class TestResponses:
    def test_freq_grid_validation(self):
        ss = integrator(1.0)
        with pytest.raises(ValueError):
            freq_response(ss, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            freq_response(ss, np.array([-1.0, 1.0]))

    def test_singular_at_frequency(self):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [4.0, 0.0, 1.0]))
        with pytest.raises(SingularAtFrequency):
            freq_response(ss, np.array([2.0]))

    def test_step_first_order_exact(self):
        # y = 1 - exp(-t) for 1/(s+1); ZOH on a step input is exact
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [1.0, 1.0]))
        ts = step_response(ss, "u", 5.0, 0.01)
        ref = 1.0 - np.exp(-ts.t)
        assert np.max(np.abs(ts.channels["y"] - ref)) < 1e-10

    def test_step_warns_unstable(self):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [-1.0, 1.0]))
        with pytest.warns(UnstableWarning):
            step_response(ss, "u", 1.0, 0.001)

    def test_step_dt_validation(self):
        ss = integrator(1.0)
        with pytest.raises(ValueError):
            step_response(ss, "u", 1.0, 0.5)


def step_reference(ss, input_name, T, dt):
    """The sequential recurrence y_i = C x_i + d, x_{i+1} = Ad x_i + Bd."""
    j = ss.input_names.index(input_name)
    n = ss.n_states
    steps = int(round(T / dt))
    y = np.empty((steps + 1, ss.n_outputs))
    d = ss.D[:, j]
    if n == 0:
        y[:] = d
        return y
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n:] = ss.B[:, j:j + 1]
    Md = expm(M * dt)
    Ad, Bd = Md[:n, :n], Md[:n, n]
    x = np.zeros(n)
    for i in range(steps + 1):
        y[i] = ss.C @ x + d
        x = Ad @ x + Bd
    return y


def assert_step_matches_reference(ss, input_name, T, dt, rtol=1e-10):
    """The blocked kernel agrees with the recurrence to rtol * max|y| in
    every output channel."""
    ts = step_response(ss, input_name, T, dt)
    ref = step_reference(ss, input_name, T, dt)
    assert ts.t.size == ref.shape[0]
    for k, name in enumerate(ss.output_names):
        err = np.max(np.abs(ts.channels[name] - ref[:, k]))
        assert err <= rtol * np.max(np.abs(ref[:, k])), name


def small_blocks(monkeypatch, ss, K):
    """Budget the step kernel's maps so that a block holds K samples."""
    n, p = ss.n_states, ss.n_outputs
    monkeypatch.setattr(lti, "_STEP_BLOCK_BYTES", K * (p + 1) * n * 8)


class TestStepKernel:
    @pytest.mark.parametrize("name", PRESETS)
    def test_presets_80s_match_recurrence(self, name):
        ss = build(config_from_dict(_load_preset(name))).ss
        assert_step_matches_reference(ss, "p_load_load1", 80.0, 1e-3)

    def test_shorter_than_one_block(self):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0, 0.5], [2.0, 3.0, 1.0]))
        assert_step_matches_reference(ss, "u", 1.0, 0.01)

    def test_last_block_partial(self, monkeypatch):
        ss = compose({"g": tf_to_ss(RationalTF.from_coeffs(
                          [1.0, 0.5], [6.0, 11.0, 6.0, 1.0])),
                      "k": StateSpace.static([[1.0], [-2.0]], ("u",),
                                             ("a", "b"))},
                     [("g.u", "u", 1.0), ("k.u", "g.y", 1.0)],
                     ["u"], ["k.a", "k.b"])
        small_blocks(monkeypatch, ss, 8)
        assert (int(round(10.0 / 0.01)) + 1) % 8 != 0
        assert_step_matches_reference(ss, "u", 10.0, 0.01)

    def test_no_states(self):
        ss = StateSpace.static([[2.0, -1.0]], ("a", "b"), ("y",))
        ts = step_response(ss, "b", 1.0, 0.01)
        assert np.array_equal(ts.channels["y"], np.full(101, -1.0))

    def test_pure_integrator(self, monkeypatch):
        ss = integrator(2.0)
        small_blocks(monkeypatch, ss, 16)
        ts = step_response(ss, "u", 10.0, 0.01)
        assert np.max(np.abs(ts.channels["y"] - 2.0 * ts.t)) < 1e-11
        assert_step_matches_reference(ss, "u", 10.0, 0.01)

    def test_unstable_warns_and_matches(self, monkeypatch):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [-1.0, 1.0]))
        small_blocks(monkeypatch, ss, 4)
        with pytest.warns(UnstableWarning):
            assert_step_matches_reference(ss, "u", 5.0, 0.01)


class TestEigvals:
    def test_read_only_and_cached(self):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [2.0, 3.0, 1.0]))
        ev = ss.eigvals
        assert ss.eigvals is ev
        with pytest.raises(ValueError):
            ev[0] = 0.0
        assert np.array_equal(ev, np.linalg.eigvals(ss.A))

    def test_one_eigensolve_per_model(self, monkeypatch):
        ss = build(config_from_dict(_load_preset("islanded_pv"))).ss
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        poles(ss)
        dc_gain(ss)
        freq_response(ss, np.logspace(-1, 3, 5))
        step_response(ss, "p_load_load1", 1.0, 0.01)
        assert calls == [ss.A.shape]


class TestSpectrum:
    def test_pure_tone_peak(self):
        t = np.arange(4000) * 1e-3   # 50 Hz falls on an exact bin
        x = np.sin(2 * np.pi * 50.0 * t)
        ts = TimeSeries(t, {"x": x})
        sp = fft_magnitude(ts, "x")
        f, mag = sp.peak()
        assert f == pytest.approx(50.0, abs=1.0 / (4000 * 1e-3))
        assert mag == pytest.approx(1.0, rel=0.05)

    def test_too_short(self):
        t = np.arange(8) * 1e-3
        ts = TimeSeries(t, {"x": np.zeros(8)})
        with pytest.raises(TooShort):
            fft_magnitude(ts, "x")

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 0.1, 0.3]), {"x": np.zeros(3)})

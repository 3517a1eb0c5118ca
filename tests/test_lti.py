import itertools
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, matrix_balance, schur
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

import acdcdyn.lti as lti
import acdcdyn.network as network
import acdcdyn.system as system
from acdcdyn.analysis import stability
from acdcdyn.lti import (AlgebraicLoop, ImproperTF, NoDcGain, PoleHit,
                         Polynomial, RationalTF, SingularAtFrequency,
                         StateSpace, TimeSeries, TooShort, UnstableWarning,
                         compose, dc_gain, fft_magnitude, freq_response,
                         integrator, poles, poly_from_roots,
                         step_response, tf_to_ss)
from acdcdyn.system import build, config_from_dict, _load_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PRESETS = ("islanded_pv", "lvdc_async", "parallel_ac_dc")


def benchmark_builds(unpatched_builds):
    """The cached builds of the presets and the FeederStream(1) configs 0-23,
    the feeders that the ``feeder`` benchmark draws for seed 1."""
    return unpatched_builds["presets"] + unpatched_builds["feeders"][:24]


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False,
                  allow_infinity=False)


#: Signed magnitudes from 1e-12 to 1e12.
magnitude = st.floats(min_value=-12, max_value=12).flatmap(
    lambda e: st.sampled_from([10.0 ** e, -10.0 ** e]))


@st.composite
def oracle_coeffs(draw):
    """Ascending coefficient tuples of degree 0-80: free coefficients, or a
    lone leading one, or the product of real, conjugate-pair and repeated
    roots; each with up to 6 zero low-order coefficients."""
    kind = draw(st.sampled_from(["free", "lone", "roots"]))
    if kind == "free":
        c = draw(st.lists(magnitude | st.just(0.0), min_size=1, max_size=75))
    elif kind == "lone":
        c = [draw(magnitude)]
    else:
        roots, n = [], draw(st.integers(1, 20))
        while len(roots) < n:
            re = draw(magnitude)
            shape = draw(st.sampled_from(["real", "pair", "repeated"]))
            if shape == "pair":
                im = abs(draw(magnitude))
                roots += [complex(re, im), complex(re, -im)]
            else:
                roots += [re] * (draw(st.integers(2, 4))
                                 if shape == "repeated" else 1)
        c = (np.real(np.poly(roots))[::-1] * draw(magnitude)).tolist()
    return (0.0,) * draw(st.integers(0, 6)) + tuple(c)


def _poly_outcome(make):
    """The coefficient bytes of make(), or its exception and message."""
    try:
        return np.array(make().coeffs).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


class TestPolynomial:
    def test_trim_and_degree(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)
        assert Polynomial([2.0, 0.0, -0.0]).coeffs == (2.0,)
        z = Polynomial([-0.0, 0.0]).coeffs      # at least one is kept
        assert z == (0.0,) and math.copysign(1.0, z[0]) == -1.0
        assert Polynomial(3.0).coeffs == (3.0,)     # a scalar: degree 0
        assert Polynomial(np.float64(-0.5)).coeffs == (-0.5,)
        with pytest.raises(ValueError, match="^empty coefficient list$"):
            Polynomial([])

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
        # a plain ValueError: a symbolic overflow is a build:ValueError
        for make in (lambda: Polynomial([1.0, math.nan]),
                     lambda: Polynomial([math.inf, 1.0]),
                     lambda: Polynomial([1.0, -math.inf, 0.0]),
                     lambda: Polynomial([1e200]) * Polynomial([1e200])):
            with pytest.raises(ValueError) as info:
                make()
            assert type(info.value) is ValueError
            assert str(info.value) == "non-finite polynomial coefficients"

    @pytest.mark.parametrize("coeffs, shape", [
        ([[1.0, 2.0]], r"\(1, 2\)"),
        ([[1.0], [2.0]], r"\(2, 1\)"),
        (np.ones((2, 2, 1)), r"\(2, 2, 1\)"),
    ], ids=["row", "column", "3-d"])
    def test_rejects_more_than_one_dimension(self, coeffs, shape):
        with pytest.raises(ValueError, match=f"1-D, got shape {shape}"):
            Polynomial(coeffs)
        with pytest.raises(ValueError, match=f"1-D, got shape {shape}"):
            RationalTF.from_coeffs(coeffs, [1.0, 1.0])

    @given(oracle_coeffs(), st.data())
    @example((0.0, 0.0, 3.0), None)      # float64 zeros, as np.roots gives
    @example((0.0,), None)
    @example((5.0,), None)
    @example((0.0, -2.0, 0.0, 1.0), None)
    @settings(max_examples=300, deadline=None)
    def test_numpy_is_the_oracle(self, c, data):
        """roots() is np.roots and poly_from_roots is np.poly, bit for bit:
        the same dtype, the same bytes, the same exception."""
        r = Polynomial(c).roots()
        ref = np.roots(c[::-1])
        assert (r.dtype, r.tobytes()) == (ref.dtype, ref.tobytes())
        subsets = [r, list(r)]
        if data is not None:
            keep = data.draw(st.lists(st.booleans(), min_size=r.size,
                                      max_size=r.size))
            subsets.append(r[np.array(keep, dtype=bool)])
        for lead in (1.0, -2.5e-3, 7.0e11):
            for z in subsets:
                assert _poly_outcome(lambda: poly_from_roots(z, lead)) == \
                    _poly_outcome(lambda: Polynomial(np.real(np.atleast_1d(
                        np.poly(z)))[::-1] * lead))

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
        assert g(0.0) == pytest.approx(1.0)
        with pytest.raises(PoleHit):
            g(-1.0)

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


def simplify_reference(tf, tol=1e-7):
    """``RationalTF.simplify`` as a Python match loop: each numerator root,
    in order, cancels the first denominator root within tol still in the
    list."""
    if tf.num.is_zero():
        return RationalTF(Polynomial([0.0]), Polynomial([1.0]))
    nr = list(tf.num.roots())
    dr = list(tf.den.roots())
    kept_n = []
    for r in nr:
        hit = None
        for i, q in enumerate(dr):
            if abs(r - q) <= tol * (1.0 + abs(r)):
                hit = i
                break
        if hit is None:
            kept_n.append(r)
        else:
            dr.pop(hit)
    gain = tf.num.coeffs[-1] / tf.den.coeffs[-1]
    return RationalTF(poly_from_roots(kept_n, leading=gain),
                      poly_from_roots(dr, leading=1.0))


def coeff_bytes(tf):
    return (np.array(tf.num.coeffs).tobytes(),
            np.array(tf.den.coeffs).tobytes())


root_value = st.floats(min_value=-30, max_value=30, allow_nan=False,
                       allow_infinity=False)
#: A real root or a conjugate pair; the sampled values repeat across draws.
root_group = st.one_of(
    st.sampled_from([0.0, -1.0, -2.5]).map(lambda r: [r]),
    root_value.map(lambda r: [r]),
    st.tuples(root_value, st.floats(min_value=0.1, max_value=30)).map(
        lambda p: [complex(*p), complex(p[0], -p[1])]))
#: Relative offsets of a copied root: equal, clustered well inside
#: simplify's 1e-7, at it, and beyond it.
root_offset = st.sampled_from([0.0, 1e-12, 1e-9, 3e-8, 1e-7, 3e-7, 1e-5])


@st.composite
def tfs_with_common_roots(draw):
    """num/den sharing perturbed copies of some roots, each side with
    roots of its own; either side may have no roots at all."""
    shared = draw(st.lists(root_group, max_size=4))
    roots = []
    for _ in range(2):
        side = [r * (1.0 + d) + d for group in shared
                for d in [draw(root_offset)] for r in group]
        side += [r for group in draw(st.lists(root_group, max_size=3))
                 for r in group]
        roots.append(side)
    leads = st.floats(min_value=0.1, max_value=10) | \
        st.floats(min_value=-10, max_value=-0.1)
    return RationalTF(poly_from_roots(roots[0], leading=draw(leads)),
                      poly_from_roots(roots[1], leading=draw(leads)))


class TestSimplify:
    @given(tfs_with_common_roots())
    @example(RationalTF.from_coeffs([2.0], [3.0]))
    @example(RationalTF.from_coeffs([0.0], [1.0, 1.0]))
    @example(RationalTF(poly_from_roots([-1.0] * 3), poly_from_roots(
        [-1.0, -1.0, -2.0])))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_match_loop(self, tf):
        assert coeff_bytes(tf.simplify()) == \
            coeff_bytes(simplify_reference(tf))

    def test_build_bit_equal_to_match_loop(self, monkeypatch,
                                           unpatched_builds):
        # the presets and the FeederStream(1) configs 0-23, order blow-ups
        # included: the same model bits, or the same exception class
        def model_bytes(ss):
            return [M.tobytes() for M in (ss.A, ss.B, ss.C, ss.D)]

        def outcome(data):
            try:
                ss = build(config_from_dict(data), check_network=False).ss
            except ValueError as exc:
                return type(exc)
            return model_bytes(ss)

        models = 0
        for data, cached in benchmark_builds(unpatched_builds):
            if isinstance(cached, StateSpace):
                got = model_bytes(cached)
            elif cached is None:     # a blow-up, which the cache does not keep
                got = outcome(data)
            else:
                got = cached
            with monkeypatch.context() as m:
                m.setattr(RationalTF, "simplify", simplify_reference)
                assert outcome(data) == got
            models += isinstance(got, list)
        assert models >= 20


class TestStateSpace:
    def test_static(self):
        ss = StateSpace.static([[2.0, -1.0]], ("a", "b"), ("y",))
        assert ss.n_states == 0
        assert ss.D.shape == (1, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        mats = {"A": np.diag([-1.0, -2.0]), "B": np.ones((2, 1)),
                "C": np.ones((1, 2)), "D": np.zeros((1, 1))}
        StateSpace(*mats.values(), ("u",), ("y",))
        for name, M in mats.items():
            spoiled = dict(mats, **{name: M.copy()})
            spoiled[name][-1, -1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                StateSpace(*spoiled.values(), ("u",), ("y",))

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
        fr = freq_response(ss, "u", "y", w)
        for i, wi in enumerate(w):
            ref = tf(1j * wi)
            assert fr.values[i] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_integrator(self):
        ss = integrator(3.0)
        fr = freq_response(ss, "u", "y", np.array([2.0]))
        assert fr.values[0] == pytest.approx(3.0 / 2j)


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

        # devices are realized in system, the network in network
        monkeypatch.setattr(system, "tf_to_ss", checked)
        monkeypatch.setattr(network, "tf_to_ss", checked)
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
    def test_negative_feedback(self):
        g = tf_to_ss(RationalTF.from_coeffs([4.0], [1.0, 1.0]), "e", "y")
        ss = compose({"g": g}, [("g.e", "r", 1.0), ("g.e", "g.y", -1.0)],
                     ["r"], ["g.y"])
        # closed loop 4/(s+5)
        fr = freq_response(ss, "r", "g.y", np.array([1.0]))
        assert fr.values[0] == pytest.approx(4.0 / (1j + 5.0), rel=1e-9)

    def test_algebraic_loop_detected(self):
        g = StateSpace.static([[1.0]], ("u",), ("y",))
        with pytest.raises(AlgebraicLoop):
            compose({"g": g}, [("g.u", "g.y", 1.0)], [], ["g.y"])

    def test_unknown_channel(self):
        g = integrator(1.0, "u", "y")
        with pytest.raises(KeyError):
            compose({"g": g}, [("g.bogus", "r", 1.0)], ["r"], ["g.y"])

    def test_feedback_sum_bit_equal_to_unblocked(self, monkeypatch):
        # the presets and FeederStream(1) configs 0-10, up to 2481 states:
        # the row-blocked sum has the bits of A + B M K C in one product
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from feeder import FeederStream

        sizes = []

        def checked(*args):
            ss = compose(*args)
            assert np.array_equal(ss.A, unblocked_closed_loop_A(*args))
            sizes.append(ss.n_states)
            return ss

        monkeypatch.setattr(system, "compose", checked)
        cfgs = [_load_preset(name) for name in PRESETS]
        cfgs += itertools.islice(FeederStream(1), 11)
        for data in cfgs:
            try:
                build(config_from_dict(data), check_network=False)
            except ValueError:
                pass             # configs whose symbolic Kron reduction fails
        assert len(sizes) >= 12
        assert max(sizes) == 2481      # 24 row blocks

    def test_no_second_n_by_n_array(self, monkeypatch):
        # FeederStream(1) config 10, 2481 states.  Besides the result, only
        # one row block of the product and the n x (inputs + outputs)
        # factors are allowed: a second n x n float array, as in
        # A + B M K C or A += B M K C, needs 47 MB more, and the n x n
        # boolean mask of an isfinite check 6.2 MB.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from feeder import FeederStream

        traced = []

        def measured(*args):
            tracemalloc.start()
            try:
                ss = compose(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            traced.append((ss, peak))
            return ss

        monkeypatch.setattr(system, "compose", measured)
        data = next(itertools.islice(FeederStream(1), 10, None))
        build(config_from_dict(data), check_network=False)
        (ss, peak), = traced
        n = ss.n_states
        assert n >= 1500
        result = sum(M.nbytes for M in (ss.A, ss.B, ss.C, ss.D))
        assert peak <= result + (4 << 20)


def dense_block(parts, input_names, output_names):
    """An entrywise block as one dense StateSpace: the parts on the diagonal
    of A in their order, each D entry added to a +0.0."""
    n = sum(ss.n_states for _, _, ss in parts)
    p, m = len(output_names), len(input_names)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    C = np.zeros((p, n))
    D = np.zeros((p, m))
    ix = 0
    for i, j, ss in parts:
        k = ss.n_states
        A[ix:ix + k, ix:ix + k] = ss.A
        B[ix:ix + k, j] = ss.B[:, 0]
        C[i, ix:ix + k] = ss.C[0]
        D[i, j] += ss.D[0, 0]
        ix += k
    return StateSpace(A, B, C, D, tuple(input_names), tuple(output_names))


def dense_mimo_reference(tfm, input_names, output_names):
    """The network realization as ``build`` made it before its parts went
    to ``compose``: one dense StateSpace."""
    parts = [(i, j, tf_to_ss(tf)) for i, row in enumerate(tfm)
             for j, tf in enumerate(row) if not tf.num.is_zero()]
    return dense_block(parts, input_names, output_names)


def build_matrices(data):
    ss = build(config_from_dict(data), check_network=False).ss
    return ss, [M.tobytes() for M in (ss.A, ss.B, ss.C, ss.D)]


class TestEntrywiseNetwork:
    def test_build_bit_equal_to_dense_network_blocks(self, monkeypatch):
        # the presets and FeederStream(1) configs 0-10, up to 2481 states:
        # placing the parts in compose gives the bits, signed zeros
        # included, of a model whose network blocks are dense StateSpaces
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from feeder import FeederStream

        sizes = []
        dense_blocks = []

        def dense(*args):
            dense_blocks.append(dense_mimo_reference(*args))
            return dense_blocks[-1]

        cfgs = [_load_preset(name) for name in PRESETS]
        cfgs += itertools.islice(FeederStream(1), 11)
        for data in cfgs:
            try:
                ss, got = build_matrices(data)
            except ValueError:
                continue         # configs whose symbolic Kron reduction fails
            dense_blocks.clear()
            with monkeypatch.context() as m:
                m.setattr(network, "_mimo_from_tf_matrix", dense)
                ref, dense_bits = build_matrices(data)
            # the reference realized the AC network, and the DC network
            # where there is one
            assert len(dense_blocks) == 1 + bool(data.get("dc_edges"))
            assert got == dense_bits
            assert (ss.input_names, ss.output_names) == \
                (ref.input_names, ref.output_names)
            sizes.append(ss.n_states)
        assert len(sizes) >= 12
        assert max(sizes) == 2481

    def test_build_holds_no_second_n_by_n_array(self, monkeypatch):
        # FeederStream(1) config 10, 2481 states: the whole of build peaks
        # at the result plus the realizations, one row block of the
        # feedback product and the n x (inputs + outputs) factors.  A dense
        # network block is another 46 MB.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from feeder import FeederStream

        cfg = config_from_dict(next(itertools.islice(FeederStream(1), 10,
                                                     None)))
        tracemalloc.start()
        try:
            ss = build(cfg, check_network=False).ss
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ss.n_states == 2481
        result = sum(M.nbytes for M in (ss.A, ss.B, ss.C, ss.D))
        assert peak <= result + (8 << 20)

    def test_open_loop_bit_equal_to_dense_block(self):
        # parts sharing inputs and outputs, a static part and a -0.0 in D:
        # an entrywise part's D enters as 0.0 + d, a StateSpace's as it is
        lag = tf_to_ss(RationalTF.from_coeffs([2.0], [1.0, 3.0]))
        lead = tf_to_ss(RationalTF.from_coeffs([1.0, 4.0], [2.0, 1.0]))
        parts = ((0, 0, lag), (0, 2, lead),
                 (1, 0, StateSpace.static([[-0.0]])),
                 (1, 1, integrator(5.0)), (2, 2, lag))
        names = (("a", "b", "c"), ("x", "y", "z"))
        pv = StateSpace.static([[-0.0]], ("v",), ("p",))
        conns = [("net.a", "pv.p", 1.0), ("pv.v", "net.y", 1.0),
                 ("net.b", "u", 1.0), ("net.c", "net.x", -1.0)]
        args = (conns, ["u"], ["net.z", "pv.p"])
        got = lti._interconnection(
            {"net": lti.EntrywiseBlock(parts, *names), "pv": pv}, *args)
        ref = lti._interconnection(
            {"net": dense_block(parts, *names), "pv": pv}, *args)
        assert [M.tobytes() for M in got] == [M.tobytes() for M in ref]
        assert math.copysign(1.0, got[3][1, 0]) == 1.0
        assert math.copysign(1.0, got[3][3, 3]) == -1.0

    def test_parts_must_be_siso_entries(self):
        g = integrator(1.0, "u", "y")
        two_inputs = StateSpace.static([[1.0, 2.0]], ("a", "b"))
        with pytest.raises(ValueError):
            lti.EntrywiseBlock(((0, 1, g),), ("u",), ("y",))
        with pytest.raises(ValueError):
            lti.EntrywiseBlock(((0, 0, two_inputs),), ("u",), ("y",))


def unblocked_closed_loop_A(blocks, connections, external_inputs,
                            external_outputs):
    """The closed-loop A of ``compose`` as one sum A + B M K C."""
    A, B, C, D, K, E, F = lti._interconnection(
        blocks, connections, external_inputs, external_outputs)
    M = np.linalg.inv(np.eye(K.shape[0]) - K @ D)
    return A + B @ M @ K @ C


def structural_mask_reference(A, eigvals):
    """``_eig_structural_mask`` with the SVD for every near-zero cluster:
    near-zero eigenvalues tagged, smallest first, up to the number of
    singular values within the tolerance."""
    rho = float(np.max(np.abs(eigvals)))
    tol = max(1e-7 * rho, 1e-12)
    near_zero = np.abs(eigvals) <= tol
    mask = np.zeros(A.shape[0], dtype=bool)
    if not near_zero.any():
        return mask
    nullity = int(np.count_nonzero(np.linalg.svd(A, compute_uv=False)
                                   <= tol))
    for i in np.argsort(np.abs(eigvals))[:nullity]:
        mask[i] = near_zero[i]
    return mask


@st.composite
def planted_zero_matrices(draw):
    """Q T Q^T scaled to a 2-norm of 1e-3..1e12, with Q orthogonal and T
    upper triangular: one exact zero on the diagonal, the other diagonal
    entries of either sign and magnitudes 10^lo..1, lo in [-6, -1], and a
    strictly upper part of up to 0.3 * 10^(lo + 1), so that the zero
    eigenvalue stays simple and the only one within 1e-7 rho."""
    n = draw(st.integers(2, 30))
    lo = draw(st.floats(-6.0, -1.0))
    c = draw(st.floats(0.0, 0.3)) * 10.0 ** (lo + 1.0)
    norm = 10.0 ** draw(st.floats(-3.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, 0.0, n)
    lam[rng.integers(n)] = 0.0
    T = np.diag(lam) + c * np.triu(rng.standard_normal((n, n)), 1)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ T @ Q.T
    return A * (norm / np.linalg.norm(A, 2))


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

    @pytest.mark.parametrize("name, svds", [
        ("islanded_pv", 0), ("lvdc_async", 1), ("parallel_ac_dc", 0)])
    def test_presets_match_svd_reference(self, monkeypatch, name, svds):
        # one zero mode skips the SVD; the two of lvdc_async need it
        ss = build(config_from_dict(_load_preset(name))).ss
        calls = []
        svd = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        mask = lti._eig_structural_mask(ss.A, ss.eigvals)
        assert len(calls) == svds
        monkeypatch.undo()
        assert np.array_equal(mask, structural_mask_reference(ss.A,
                                                              ss.eigvals))
        assert np.count_nonzero(mask) == zero_modes(ss)

    def test_feeders_match_svd_reference(self, unpatched_builds):
        counts = []
        for _, ss in unpatched_builds["feeders"]:
            if not isinstance(ss, StateSpace):
                continue         # failed symbolic Kron reductions, blow-ups
            mask = lti._eig_structural_mask(ss.A, ss.eigvals)
            assert np.array_equal(
                mask, structural_mask_reference(ss.A, ss.eigvals))
            counts.append(zero_modes(ss))
        assert len(counts) >= 55
        assert 1 in counts

    @given(planted_zero_matrices())
    @settings(max_examples=100, deadline=None)
    def test_planted_zero_matches_svd_reference(self, A):
        ev = np.linalg.eigvals(A)
        mask = lti._eig_structural_mask(A, ev)
        assert np.count_nonzero(mask) == 1
        assert np.array_equal(mask, structural_mask_reference(A, ev))


def dc_gain_reference(ss, residue_tol=1e-6):
    """The Schur-deflation DC gain: an ordered real Schur form puts the
    eigenvalues within max(1e-7 rho, 1e-12) of the origin into a trailing
    block T22, and the gain is D - C1 T11^-1 B1 - C1 T11^-2 T12 B2 when T22
    and the residue (C2 - C1 T11^-1 T12) B2 vanish."""
    n = ss.n_states
    if n == 0:
        return ss.D.copy()
    rho = float(np.max(np.abs(ss.eigvals)))
    tol = max(1e-7 * rho, 1e-12)
    T, Q, k = schur(ss.A, output="real",
                    sort=lambda re, im: np.hypot(re, im) > tol)
    Bq = Q.T @ ss.B
    Cq = ss.C @ Q
    scale = 1.0 + float(np.linalg.norm(ss.B)) * float(np.linalg.norm(ss.C))
    if k == n:
        return ss.D - Cq @ np.linalg.solve(T, Bq)
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    B1, B2 = Bq[:k], Bq[k:]
    C1, C2 = Cq[:, :k], Cq[:, k:]
    if np.linalg.norm(T22) > tol * max(1.0, rho):
        raise NoDcGain("defective pole cluster at the origin")
    if k == 0:
        if np.max(np.abs(C2 @ B2)) > residue_tol * scale:
            raise NoDcGain("integrating mode with nonzero residue at s=0")
        return ss.D.copy()
    X = np.linalg.solve(T11, T12)
    residue = (C2 - C1 @ X) @ B2
    if np.max(np.abs(residue)) > residue_tol * scale:
        raise NoDcGain("integrating mode with nonzero residue at s=0")
    return (ss.D - C1 @ np.linalg.solve(T11, B1)
            - C1 @ np.linalg.solve(T11, X @ B2))


def zero_modes(ss):
    """The eigenvalue count that ``dc_gain`` treats as zero modes."""
    ev = np.abs(ss.eigvals)
    return int(np.count_nonzero(ev <= max(1e-7 * ev.max(), 1e-12)))


#: The ``feeder`` benchmark's oracle tolerance on closed-loop DC gains, in
#: p.u. per 1 p.u. load step.
DC_TOL = 1e-4


def feeder_outcome(gain, cfg, ss):
    """The ``feeder`` benchmark's verdict on ``gain(ss)``: "NoDcGain",
    "mismatch" against the static steady state, or "ok"."""
    try:
        G = gain(ss)
    except NoDcGain:
        return "NoDcGain"
    j = ss.input_names.index("p_load_" + cfg.graph.load_names[0])
    st = system.steady_state(cfg, 1.0)
    resid = max(abs(G[o, j] - (st.domega if name.startswith("omega_")
                               else st.dp_tg))
                for o, name in enumerate(ss.output_names)
                if name.startswith(("omega_", "p_tg_")))
    return "ok" if resid <= DC_TOL else "mismatch"


def siso(A, B, C):
    return StateSpace(np.array(A, dtype=float), B, C, [[0.0]], ("u",), ("y",))


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

    def test_zero_column(self):
        # x1' = x2, x2' = -2 x2 + u: A is exactly singular, and x1 is a
        # reference mode as long as no output reads it
        A = [[0.0, 1.0], [0.0, -2.0]]
        ss = siso(A, [[0.0], [1.0]], [[0.0, 1.0]])
        assert dc_gain(ss)[0, 0] == pytest.approx(0.5, rel=1e-14)
        assert dc_gain_reference(ss)[0, 0] == pytest.approx(0.5, rel=1e-14)
        with pytest.raises(NoDcGain, match="residue"):
            dc_gain(siso(A, [[0.0], [1.0]], [[1.0, 0.0]]))

    def test_jordan_block_at_origin_is_defective(self):
        # a double integrator the input and output never touch
        A = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
        ss = siso(A, [[0.0], [0.0], [1.0]], [[0.0, 0.0, 1.0]])
        assert zero_modes(ss) == 2
        for gain in (dc_gain, dc_gain_reference):
            with pytest.raises(NoDcGain, match="defective"):
                gain(ss)

    @pytest.mark.parametrize("name, modes", [
        ("islanded_pv", 1), ("lvdc_async", 2), ("parallel_ac_dc", 1)])
    def test_presets_match_schur_reference(self, name, modes):
        ss = build(config_from_dict(_load_preset(name))).ss
        assert zero_modes(ss) == modes
        G, ref = dc_gain(ss), dc_gain_reference(ss)
        assert np.all(np.abs(G - ref) <= 1e-6 * (1.0 + np.abs(ref)))

    def test_feeder_gains_ok_and_cover_schur_reference(self,
                                                       unpatched_builds):
        # every model the benchmark analyses agrees with the static steady
        # state; the Schur deflation does so only on some of them
        ok, ref_ok = set(), set()
        models = 0
        for i, (data, ss) in enumerate(unpatched_builds["feeders"][:24]):
            if not isinstance(ss, StateSpace):
                continue         # failed symbolic Kron reductions, blow-ups
            cfg = config_from_dict(data)
            models += 1
            if feeder_outcome(dc_gain, cfg, ss) == "ok":
                ok.add(i)
            if feeder_outcome(dc_gain_reference, cfg, ss) == "ok":
                ref_ok.add(i)
        assert models >= 18
        assert len(ok) == models
        assert ref_ok <= ok

    def test_bordered_null_bases_and_three_solves(self, monkeypatch,
                                                  unpatched_builds):
        # every model the benchmark analyses among the presets and the
        # FeederStream(1) configs 0-23: orthonormal null bases within the
        # zero-mode tolerance, at most three solves of order n or more
        # (one without zero modes), and no more than two (n + k)^2 arrays
        # alive besides A
        solve = np.linalg.solve
        orders = []

        def spy(a, b):
            orders.append(a.shape[0])
            return solve(a, b)

        checked = with_modes = 0
        for _, ss in benchmark_builds(unpatched_builds):
            if not isinstance(ss, StateSpace):
                continue         # failed symbolic Kron reductions, blow-ups
            n = ss.n_states
            rho, tol, near_zero = lti._zero_modes(ss.eigvals)
            k = int(np.count_nonzero(near_zero))
            orders.clear()
            tracemalloc.start()
            try:
                with monkeypatch.context() as m:
                    m.setattr(np.linalg, "solve", spy)
                    dc_gain(ss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len([o for o in orders if o >= n]) <= (3 if k else 1)
            assert peak <= 2 * (n + k) ** 2 * 8 + (1 << 20)
            checked += 1
            if k == 0:
                continue
            V, W = lti._zero_mode_bases(ss.A, k)
            for X in (V, W):
                assert X.shape == (n, k)
                assert np.allclose(X.T @ X, np.eye(k), rtol=0, atol=1e-12)
            bound = tol * max(1.0, rho)
            assert np.linalg.norm(ss.A @ V) <= bound
            assert np.linalg.norm(W.T @ ss.A) <= bound
            with_modes += 1
        assert checked >= 20 and with_modes >= 18

    def test_repeat_calls_bit_equal(self):
        ss = build(config_from_dict(_load_preset("parallel_ac_dc"))).ss
        copy = StateSpace(ss.A.copy(), ss.B, ss.C, ss.D, ss.input_names,
                          ss.output_names)
        G = dc_gain(ss)
        assert np.array_equal(G, dc_gain(ss))
        assert np.array_equal(G, dc_gain(copy))


class TestResponses:
    def test_freq_grid_validation(self):
        ss = integrator(1.0)
        with pytest.raises(ValueError):
            freq_response(ss, "u", "y", np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            freq_response(ss, "u", "y", np.array([-1.0, 1.0]))

    @pytest.mark.parametrize("grid", [[math.nan, 1.0], [1.0, math.inf],
                                      [1.0, math.nan]])
    def test_freq_grid_must_be_finite(self, grid):
        with pytest.raises(ValueError, match="finite"):
            freq_response(integrator(1.0), "u", "y", np.array(grid))

    def test_singular_at_frequency(self):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [4.0, 0.0, 1.0]))
        with pytest.raises(SingularAtFrequency):
            freq_response(ss, "u", "y", np.array([2.0]))

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

    @pytest.mark.parametrize("T, dt", [(1.0, math.nan), (math.nan, 0.01),
                                       (math.inf, math.inf)])
    def test_step_rejects_non_finite_times(self, T, dt):
        with pytest.raises(ValueError, match="0 < dt <= T/100"):
            step_response(integrator(1.0), "u", T, dt)

    def test_unknown_channel_named_alike(self, monkeypatch):
        # every lookup of an external channel by name fails the same way,
        # and freq_response looks both names up before it solves
        ss = integrator(1.0)
        ts = step_response(ss, "u", 1.0, 0.01)

        def solve(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", solve)
        w = np.array([1.0])
        for kind, lookup in [
                ("input", lambda: step_response(ss, "x", 1.0, 0.01)),
                ("input", lambda: freq_response(ss, "x", "y", w)),
                ("output", lambda: freq_response(ss, "u", "x", w)),
                ("output", lambda: fft_magnitude(ts, "x"))]:
            with pytest.raises(KeyError) as info:
                lookup()
            assert info.value.args == (f"unknown {kind} channel 'x'",)

    def test_step_output_cap(self, monkeypatch):
        # 1e18 samples are refused before any work: an unstable model
        # would warn first if the poles were computed
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [-1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceed"):
                step_response(ss, "u", 1e9, 1e-9)
        # the cap counts (T/dt + 1) samples x outputs x 8 bytes
        ss = integrator(1.0)
        monkeypatch.setattr(lti, "_STEP_OUTPUT_BYTES", 101 * 8)
        assert len(step_response(ss, "u", 1.0, 0.01).t) == 101
        monkeypatch.setattr(lti, "_STEP_OUTPUT_BYTES", 101 * 8 - 1)
        with pytest.raises(ValueError, match="exceed"):
            step_response(ss, "u", 1.0, 0.01)


def step_matrix(ss, j, dt):
    """[[A, b_j], [0, 0]] dt, whose exponential is the zero-order-hold
    discretization of input j."""
    n = ss.n_states
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n] = ss.B[:, j]
    return M * dt


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
    Md = expm(step_matrix(ss, j, dt))
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


UNIT_ROUNDOFF = 2.0 ** -53


def norm1(X):
    return np.abs(X).sum(axis=0).max()


def expm_error(A):
    """1-norm relative difference of ``lti._expm(A)`` from SciPy's."""
    ref = expm(A)
    return norm1(lti._expm(A) - ref) / norm1(ref)


@st.composite
def dense_matrices(draw):
    """Gaussian n x n matrices, n <= 40, scaled to a 1-norm of 1e-6..1e6
    and shifted so that the rightmost eigenvalue lies on the imaginary
    axis: the exponential stays bounded."""
    n = draw(st.integers(1, 40))
    norm = 10.0 ** draw(st.floats(-6.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.standard_normal((n, n))
    A = G * (norm / norm1(G))
    return A - np.max(np.linalg.eigvals(A).real) * np.eye(n)


@st.composite
def non_normal_matrices(draw):
    """Q T Q^T with Q orthogonal and T upper triangular: a diagonal in
    [-1, 0] and one superdiagonal entry c of 1..1e6, so the norm is large
    and the spectrum small."""
    n = draw(st.integers(2, 40))
    c = 10.0 ** draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    T = np.diag(rng.uniform(-1.0, 0.0, n))
    T[0, 1] = c
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ T @ Q.T


class TestExpm:
    @pytest.mark.parametrize("dt", [1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("name", PRESETS)
    def test_step_matrices_match_scipy(self, name, dt):
        ss = build(config_from_dict(_load_preset(name))).ss
        for j in range(ss.n_inputs):
            assert expm_error(step_matrix(ss, j, dt)) <= 1e-13

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_dense_matches_scipy(self, A):
        # both are backward stable, and the exponential of such a matrix
        # has a relative condition number of order ||A||.  SciPy's own
        # error reaches 1.2e2 u ||A|| (3000 samples): on a 2 x 2 one with
        # ||A|| = 81, 50-digit mpmath puts it at 9.8e3 u and _expm at 68 u.
        assert expm_error(A) <= 1e3 * UNIT_ROUNDOFF * max(1.0, norm1(A))

    @given(non_normal_matrices())
    @settings(max_examples=60, deadline=None)
    def test_non_normal_matches_scipy(self, A):
        # the relative condition number grows like c^2 ~ ||A||^2 here, and
        # the two differ by up to 5.4e2 u ||A||^2 (3000 samples)
        assert expm_error(A) <= 1e4 * UNIT_ROUNDOFF * norm1(A) ** 2

    def test_no_states(self):
        assert lti._expm(np.zeros((0, 0))).shape == (0, 0)

    @pytest.mark.parametrize("a", [-700.0, -3.0, 0.0, 1e-9, 0.5, 40.0])
    def test_scalar(self, a):
        # exp has the relative condition number |a| at a
        assert lti._expm(np.array([[a]]))[0, 0] == pytest.approx(
            math.exp(a), rel=4 * UNIT_ROUNDOFF * max(1.0, abs(a)))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_zero_matrix_gives_identity(self, n):
        assert np.array_equal(lti._expm(np.zeros((n, n))), np.eye(n))

    @pytest.mark.parametrize("t", [0.01, 0.2, 0.9, 2.0, 3.0, 100.0])
    def test_rotation_generator(self, t):
        # t J with J^2 = -I: exp(t J) is the rotation by t
        A = np.array([[0.0, t], [-t, 0.0]])
        exact = np.array([[math.cos(t), math.sin(t)],
                          [-math.sin(t), math.cos(t)]])
        X = lti._expm(A)
        assert norm1(X - exact) <= 1e-14 * max(1.0, t)
        assert norm1(X - expm(A)) <= 1e-14 * max(1.0, t)

    def test_ell_correction_at_degree_13(self, monkeypatch):
        # Q (T - 0.1 I) Q^T with T strictly upper triangular, entries ~50:
        # the scaling from eta alone leaves a backward error above u, and
        # ell(A 2^-s, 13) adds 4 squarings.  Against a 40-digit exponential
        # the largest entrywise relative error is 6.9e-12 with them and
        # 9.6e-11 without.
        rng = np.random.default_rng(1)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        T = 50.0 * np.triu(rng.standard_normal((5, 5)), 1)
        A = Q @ (T - 0.1 * np.eye(5)) @ Q.T
        extra = []
        ell = lti._ell

        def spy(M, m):
            extra.append((m, ell(M, m)))
            return extra[-1][1]

        monkeypatch.setattr(lti, "_ell", spy)
        X = lti._expm(A)
        assert extra == [(13, 4)]
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(),
                             dtype=float)
        assert np.max(np.abs(X - exact) / np.abs(exact)) <= 2.5e-11


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


def as_ss(A):
    """A one-input, one-output model with state matrix A."""
    n = A.shape[0]
    return StateSpace(A, np.zeros((n, 1)), np.zeros((1, n)), np.zeros((1, 1)),
                      ("u",), ("y",))


def strong_blocks_reference(A):
    """SciPy's strongly connected components of the digraph of A != 0,
    each as its sorted state indices, in sorted order."""
    if A.shape[0] == 0:
        return []
    k, labels = connected_components(A != 0, connection="strong")
    return sorted(np.flatnonzero(labels == c).tolist() for c in range(k))


def multiset_distance(x, y):
    """The largest distance between the entries of x and y, matched one to
    one so that this distance is least (assignment on |x_i - y_j|)."""
    assert len(x) == len(y)
    if len(x) == 0:
        return 0.0
    d = np.abs(np.subtract.outer(x, y))
    rows, cols = linear_sum_assignment(d)
    return float(np.max(d[rows, cols]))


@st.composite
def sparse_digraphs(draw):
    """Adjacency matrices of up to 30 states and up to 3n edges, the
    diagonal (self-loops) included."""
    n = draw(st.integers(0, 30))
    state = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(state, state), max_size=3 * n))
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = 1.0
    return A


@st.composite
def planted_block_matrices(draw):
    """(A, blocks): a permuted block upper triangular A whose diagonal
    blocks are dense normal matrices Q D Q^T (D of real 1 x 1 and complex
    2 x 2 rotation-scaling parts, Q orthogonal) of 1..6 states, and those
    blocks, each as its rows of A.  The coupling above the diagonal blocks
    is sparse and of any scale up to 1e3."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coupling = 10.0 ** draw(st.floats(-3.0, 3.0))
    n = sum(sizes)
    A = np.zeros((n, n))
    parts, at = [], 0
    for m in sizes:
        D = np.diag(rng.standard_normal(m))
        for i in range(0, m - 1, 2):
            if rng.random() < 0.5:
                D[i, i + 1], D[i + 1, i] = (b := rng.standard_normal()), -b
                D[i + 1, i + 1] = D[i, i]
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        A[at:at + m, at:at + m] = Q @ D @ Q.T
        A[at:at + m, at + m:] = coupling * (
            rng.standard_normal((m, n - at - m))
            * (rng.random((m, n - at - m)) < 0.2))
        parts.append(range(at, at + m))
        at += m
    perm = rng.permutation(n)          # state i of A is state perm[i] here
    where = np.argsort(perm)
    return A[np.ix_(perm, perm)], [sorted(where[list(p)].tolist())
                                   for p in parts]


class TestEigvals:
    def test_read_only_and_cached(self):
        ss = tf_to_ss(RationalTF.from_coeffs([1.0], [2.0, 3.0, 1.0]))
        ev = ss.eigvals
        assert ss.eigvals is ev
        with pytest.raises(ValueError):
            ev[0] = 0.0
        assert np.array_equal(ev, np.linalg.eigvals(ss.A))

    def test_one_eigensolve_per_model(self, monkeypatch):
        # the first read of eigvals solves each strongly connected block
        # of two or more states once, and no later reader solves again
        models = [build(config_from_dict(_load_preset(name))).ss
                  for name in PRESETS]
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for ss in models:
            calls.clear()
            ss.eigvals
            sizes = [len(b) for b in lti._strong_blocks(ss.A) if len(b) > 1]
            assert sorted(calls) == sorted((m, m) for m in sizes)
            assert len(calls) > 1
            assert sum(sizes) <= ss.n_states
            calls.clear()
            poles(ss)
            dc_gain(ss)
            freq_response(ss, "p_load_load1", "omega_sg",
                          np.logspace(-1, 3, 5))
            step_response(ss, "p_load_load1", 1.0, 0.01)
            assert calls == []

    @given(sparse_digraphs())
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_scipy(self, A):
        assert sorted(lti._strong_blocks(A)) == strong_blocks_reference(A)

    @given(planted_block_matrices())
    @settings(max_examples=100, deadline=None)
    def test_spectrum_is_the_planted_blocks(self, case):
        A, blocks = case
        assert sorted(lti._strong_blocks(A)) == sorted(blocks)
        ref = np.concatenate([np.linalg.eigvals(A[np.ix_(b, b)])
                              for b in blocks])
        ev = as_ss(A).eigvals
        rho = float(np.max(np.abs(ref)))
        assert multiset_distance(ev, ref) <= 1e-12 * rho

    @given(st.integers(1, 30), st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_irreducible_is_one_dense_solve(self, n, seed, symmetric):
        # a cycle through every state, plus Gaussian entries on about a
        # third of the others; a symmetric A has a real spectrum
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        A[np.arange(n), np.roll(np.arange(n), 1)] = 1.0 + rng.random(n)
        if symmetric:
            A = A + A.T
        ev, ref = as_ss(A).eigvals, np.linalg.eigvals(A)
        assert len(lti._strong_blocks(A)) == 1
        assert ev.dtype == ref.dtype
        assert np.array_equal(ev, ref)
        if symmetric:
            assert ev.dtype == np.float64

    def test_empty_and_all_one_by_one(self):
        ev = StateSpace.static(2.0).eigvals
        assert ev.shape == (0,) and ev.dtype == np.float64
        assert poles(StateSpace.static(2.0)) == []
        rng = np.random.default_rng(0)
        A = np.triu(rng.standard_normal((6, 6)))
        A[2, 2] = 0.0
        perm = rng.permutation(6)
        A = A[np.ix_(perm, perm)]
        ev = as_ss(A).eigvals
        assert len(lti._strong_blocks(A)) == 6
        assert ev.dtype == np.float64
        assert np.array_equal(np.sort(ev), np.sort(np.diag(A)))
        assert np.array_equal(as_ss(np.diag([3.0, -1.0])).eigvals,
                              [3.0, -1.0])

    @pytest.mark.parametrize("name", PRESETS)
    def test_presets_match_dense_spectrum(self, name):
        ss = build(config_from_dict(_load_preset(name))).ss
        dense = np.linalg.eigvals(ss.A)
        rho = float(np.max(np.abs(dense)))
        assert multiset_distance(ss.eigvals, dense) <= 1e-8 * rho

    def test_feeders_keep_the_dense_verdicts(self, unpatched_builds):
        # the readers of the spectrum decide as they do on dense
        # eigenvalues; the eigenvalues themselves are not compared, since
        # at norm(A) of 1e11-1e32 both solvers scatter clustered poles
        models = 0
        for _, ss in unpatched_builds["feeders"]:
            if not isinstance(ss, StateSpace):
                continue         # failed symbolic Kron reductions, blow-ups
            models += 1
            dense = np.linalg.eigvals(ss.A)
            mask = lti._eig_structural_mask(ss.A, dense)
            ps = poles(ss)
            assert stability(ss).stable == bool(
                np.all(dense[~mask].real < 0))
            assert sum(p.structural for p in ps) == np.count_nonzero(mask)
            assert (np.count_nonzero(lti._zero_modes(ss.eigvals)[2])
                    == np.count_nonzero(lti._zero_modes(dense)[2]))
        assert models >= 55


class TestSpectrum:
    def test_pure_tone_peak(self):
        t = np.arange(4000) * 1e-3   # 50 Hz falls on an exact bin
        x = np.sin(2 * np.pi * 50.0 * t)
        ts = TimeSeries(t, {"x": x})
        sp = fft_magnitude(ts, "x")
        i = int(np.argmax(sp.magnitude))
        f, mag = sp.freq_hz[i], sp.magnitude[i]
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

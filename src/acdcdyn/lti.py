"""Core LTI machinery: polynomials, rational transfer functions, state-space
realization and interconnection, poles, frequency/time responses, spectra.

All types are immutable after construction and every operation is a pure
function, so evaluation over frequency grids or parameter sweeps can run
concurrently without shared state.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np


class NumericFailure(Exception):
    """A computation failed on valid input (exit 2); bad input is ValueError."""


#: Largest condition number of a matrix that is solved, not reported singular
#: (``kron_reduce``, ``compose``, ``steady_state``, ``dc_gain``).  One zero
#: mode's W^T V in ``dc_gain`` exceeds it only when exactly singular.
MAX_COND = 1e12


def is_real(x) -> bool:
    """A real number that is not a bool: an int, a float or a NumPy one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_real(name: str, value, kind: str = "real") -> float:
    """`value` as a float if it is a finite real number of `kind` ("real",
    "positive" or "nonnegative"), else TypeError or ValueError naming it."""
    if not is_real(value):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:       # an int too large for a float
        x = math.inf
    admits = {"real": True, "positive": x > 0, "nonnegative": x >= 0}
    if not (math.isfinite(x) and admits[kind]):
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")
    return x


def check_fields(record, optional=(), **kinds) -> None:
    """``check_real`` on the fields of `record` named under each kind, as
    ``Record.field``; a field also in `optional` may be None."""
    for kind, fields in kinds.items():
        for field in fields:
            value = getattr(record, field)
            if value is not None or field not in optional:
                check_real(f"{type(record).__name__}.{field}", value, kind)


class PoleHit(NumericFailure):
    """Rational evaluation requested at (or numerically on top of) a pole."""


class ImproperTF(ValueError):
    """Realization requested for a transfer function with deg num > deg den."""


class AlgebraicLoop(NumericFailure):
    """The feedthrough loop matrix (I - K D) is singular or near-singular."""


class SingularAtFrequency(NumericFailure):
    """j*omega coincides with an eigenvalue of A at a requested grid point."""


class NoDcGain(NumericFailure):
    """A requested channel has genuine integrating behavior at s = 0."""


class TooShort(NumericFailure):
    """Time series too short for spectral analysis."""


class UnstableWarning(UserWarning):
    """Attached to time responses of models with unstable non-structural poles."""


# --------------------------------------------------------------------------
# polynomials and rational functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending-degree coefficients."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float] | float):
        """Take a scalar or a 1-D sequence and drop trailing zero (and -0.0)
        coefficients, keeping at least one."""
        a = np.asarray(coeffs, dtype=float)
        if a.ndim > 1:
            raise ValueError("polynomial coefficients must be a scalar or "
                             f"1-D, got shape {a.shape}")
        c = a.tolist() if a.ndim else [float(a)]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if not c:
            raise ValueError("empty coefficient list")
        if not all(map(math.isfinite, c)):
            raise ValueError("non-finite polynomial coefficients")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s: complex) -> complex:
        # Horner, highest degree first
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        a[: len(self.coeffs)] = self.coeffs
        a[: len(other.coeffs)] += other.coeffs
        return Polynomial(a)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(np.asarray(self.coeffs) * float(other))

    __rmul__ = __mul__

    def roots(self) -> np.ndarray:
        """The roots as ``np.roots`` gives them, bit for bit: the eigenvalues
        of the companion matrix above the zero low-order coefficients, then
        one zero per such coefficient in their dtype (float64 when every
        root is real or there are no others)."""
        c = self.coeffs
        k = 0
        while k < len(c) - 1 and c[k] == 0.0:
            k += 1
        n = len(c) - 1 - k
        if n == 0:
            return np.zeros(k)
        A = np.zeros((n, n))
        A.flat[n::n + 1] = 1.0              # the subdiagonal
        lead = c[-1]
        A[0] = [-x / lead for x in reversed(c[k:-1])]
        r = np.linalg.eigvals(A)
        return np.concatenate((r, np.zeros(k, r.dtype))) if k else r

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0


def poly_from_roots(roots: Sequence[complex], leading: float = 1.0) -> Polynomial:
    """leading * prod(s - z), multiplied out as ``np.poly`` does: one
    ``np.convolve`` with [1, -z] per root, in order, in float64 if every
    root is real and complex128 otherwise; the real part is kept."""
    z = np.asarray(roots)
    v = np.ones(2, complex if z.dtype.kind == "c" else float)
    a = np.ones(1, v.dtype)
    for x in z.tolist():
        v[1] = -x
        a = np.convolve(a, v)
    return Polynomial(a.real[::-1] * leading)


#: ``RationalTF.simplify`` cancels roots z, p with |z - p| <= tol (1 + |z|).
SIMPLIFY_TOL = 1e-7


@dataclass(frozen=True)
class RationalTF:
    """Scalar transfer function num(s)/den(s) with real coefficients."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero():
            raise ValueError("denominator identically zero")

    @classmethod
    def from_coeffs(cls, num: Sequence[float], den: Sequence[float]) -> "RationalTF":
        return cls(Polynomial(num), Polynomial(den))

    @classmethod
    def constant(cls, gain: float) -> "RationalTF":
        return cls(Polynomial([gain]), Polynomial([1.0]))

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree or self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __call__(self, s: complex) -> complex:
        d = self.den(s)
        if abs(d) < 1e-300:
            raise PoleHit(f"denominator vanishes at s = {s}")
        return self.num(s) / d

    def __add__(self, other: "RationalTF") -> "RationalTF":
        other = _as_tf(other)
        return RationalTF(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: "RationalTF") -> "RationalTF":
        return self + (-1.0) * _as_tf(other)

    def __mul__(self, other):
        if isinstance(other, RationalTF):
            return RationalTF(self.num * other.num, self.den * other.den)
        return RationalTF(self.num * float(other), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalTF":
        other = _as_tf(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero transfer function")
        return RationalTF(self.num * other.den, self.den * other.num)

    def simplify(self) -> "RationalTF":
        """Cancel numerator/denominator root pairs that match within
        ``SIMPLIFY_TOL`` and normalize the denominator to be monic."""
        if self.num.is_zero():
            return RationalTF.constant(0.0)
        nr = self.num.roots()
        dr = self.den.roots()
        gain = self.num.coeffs[-1] / self.den.coeffs[-1]
        # each numerator root, in order, cancels the first denominator root
        # within tolerance that an earlier one has not taken
        bound = SIMPLIFY_TOL * (1.0 + np.abs(nr))
        match = np.abs(nr[:, None] - dr) <= bound[:, None]
        keep_n = np.ones(nr.size, dtype=bool)
        keep_d = np.ones(dr.size, dtype=bool)
        for i, j in zip(*(ix.tolist() for ix in np.nonzero(match))):
            if keep_n[i] and keep_d[j]:
                keep_n[i] = keep_d[j] = False
        return RationalTF(poly_from_roots(nr[keep_n], leading=gain),
                          poly_from_roots(dr[keep_d], leading=1.0))


def _as_tf(x) -> RationalTF:
    if isinstance(x, RationalTF):
        return x
    return RationalTF.constant(float(x))


# --------------------------------------------------------------------------
# state space
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpace:
    """Real (A, B, C, D) with named input and output channels."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0] if A.size else 0
        if A.size == 0:
            A = np.zeros((0, 0))
        p, m = D.shape
        B = np.asarray(self.B, dtype=float).reshape(n, m)
        C = np.asarray(self.C, dtype=float).reshape(p, n)
        if A.shape != (n, n):
            raise ValueError("A must be square")
        for M in (A, B, C, D):
            # min and max propagate NaN and +-inf without an n x n mask
            if M.size and not (math.isfinite(M.min())
                               and math.isfinite(M.max())):
                raise ValueError("non-finite state-space entries")
        if len(self.input_names) != m or len(self.output_names) != p:
            raise ValueError("channel name lists must match B/C dimensions")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "input_names", tuple(self.input_names))
        object.__setattr__(self, "output_names", tuple(self.output_names))

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.D.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.D.shape[0]

    @cached_property
    def eigvals(self) -> np.ndarray:
        """Eigenvalues of A, computed once per model (read-only).

        They are the union of the eigenvalues of the diagonal blocks of A's
        Frobenius normal form, the strongly connected blocks of
        ``_strong_blocks``: one dense solve per block of two or more states
        (its states in their order in A), and the diagonal entry of a 1 x 1
        block.  An irreducible A is one dense solve of A itself."""
        A = self.A
        ev = np.concatenate(
            [np.linalg.eigvals(A[np.ix_(b, b)]) if len(b) > 1
             else A[b, b] for b in _strong_blocks(A)] or [np.array([])])
        ev.flags.writeable = False
        return ev

    @classmethod
    def static(cls, gain, input_names=("u",), output_names=("y",)) -> "StateSpace":
        D = np.atleast_2d(np.asarray(gain, dtype=float))
        p, m = D.shape
        return cls(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), D,
                   tuple(input_names), tuple(output_names))


def _strong_blocks(A: np.ndarray) -> list[list[int]]:
    """The strongly connected components of the digraph with an edge i -> j
    for each off-diagonal A[i, j] != 0, each as its sorted state indices,
    by Tarjan's algorithm (SIAM J. Comput. 1(2), 1972) run on an explicit
    stack.  Permuted to these blocks, A is block triangular."""
    n = A.shape[0]
    rows, cols = np.nonzero(A)
    edge = rows != cols
    start = np.searchsorted(rows[edge], np.arange(n + 1)).tolist()
    succ = cols[edge].tolist()
    nxt = start[:n]                  # the next successor to visit, per state
    index = [-1] * n                 # the visit order, -1 before the visit
    low = [0] * n
    on_stack = [False] * n
    stack, blocks, visited = [], [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = True
        path = [root]
        while path:
            v = path[-1]
            k = nxt[v]
            if k < start[v + 1]:
                nxt[v] = k + 1
                w = succ[k]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    on_stack[w] = True
                    path.append(w)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            path.pop()
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
            if low[v] == index[v]:
                block = []
                while not block or block[-1] != v:
                    block.append(stack.pop())
                    on_stack[block[-1]] = False
                blocks.append(sorted(block))
    return blocks


def tf_to_ss(tf: RationalTF, input_name: str = "u",
             output_name: str = "y") -> StateSpace:
    """Controllable-canonical realization of a proper rational function,
    diagonally balanced to keep ``norm(A)`` near the spectral radius."""
    if not tf.is_proper:
        raise ImproperTF(
            f"deg num = {tf.num.degree} > deg den = {tf.den.degree}")
    den = np.asarray(tf.den.coeffs, dtype=float)
    num = np.asarray(tf.num.coeffs, dtype=float)
    lead = den[-1]
    den = den / lead
    num = num / lead
    n = len(den) - 1
    b = np.zeros(n + 1)
    b[: len(num)] = num
    d = b[n]
    if n == 0:
        return StateSpace.static([[d]], (input_name,), (output_name,))
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = (b[:n] - den[:n] * d).reshape(1, n)
    D = np.array([[d]])
    sup, last, t = _balance_companion((-den[:n]).tolist())
    A = np.zeros((n, n))
    A[np.arange(n - 1), np.arange(1, n)] = sup
    A[-1, :] = last
    t = np.array(t)
    B_b = B / t[:, None]
    C_b = C * t[None, :]
    return StateSpace(A, B_b, C_b, D, (input_name,), (output_name,))


# Safe range of LAPACK xGEBAL: SFMIN1 = dlamch('S') / dlamch('P').
_SFMIN1 = 2.0 ** -970
_SFMAX1 = 1.0 / _SFMIN1
_SFMIN2 = 2.0 * _SFMIN1
_SFMAX2 = 1.0 / _SFMIN2
_E_MAX = math.frexp(_SFMAX2)[1]
_E_MIN = math.frexp(_SFMIN2)[1]


def _doublings(small, big, up, down) -> int:
    """A lower bound on the steps xGEBAL's doubling loop takes, each one
    doubling ``small`` and the values in ``up`` and halving ``big`` and the
    values in ``down``, while small < big, max(up) < SFMAX2 and
    min(down) > SFMIN2.  Read off the binary exponents; a few single steps
    finish the loop."""
    lo = min(down)
    if big == 0.0 or lo == 0.0:
        return 0
    return max(0, min((math.frexp(big)[1] - math.frexp(small)[1] + 1) // 2,
                      _E_MAX - math.frexp(max(up))[1],
                      math.frexp(lo)[1] - _E_MIN))


def _balance_companion(last: list[float]):
    """Diagonal balancing of a companion matrix, the same as LAPACK xGEBAL
    with job 'S' (``scipy.linalg.matrix_balance(A, permute=False)``).

    The matrix has ones on the superdiagonal and ``last`` as its last row;
    scaling keeps that pattern, so a column holds at most two nonzeros and
    every row but the last one.  Returns the scaled superdiagonal, the
    scaled last row and the scale vector, all powers of two."""
    n = len(last)
    sup = [1.0] * (n - 1)
    scale = [1.0] * n
    ldexp = math.ldexp
    noconv = True
    while noconv:
        noconv = False
        for i in range(n):
            if i:
                c = math.hypot(sup[i - 1], last[i])
                ca = max(abs(sup[i - 1]), abs(last[i]))
            else:
                c = ca = abs(last[0])
            if i < n - 1:
                r = ra = abs(sup[i])
            else:
                r = math.hypot(*last)
                ra = max(map(abs, last))
            if c == 0.0 or r == 0.0:
                continue
            s = c + r
            f = 1.0
            g = r / 2.0
            k = _doublings(c, g, (f, c, ca), (r, g, ra)) if c < g else 0
            if k:
                f, c, ca = ldexp(f, k), ldexp(c, k), ldexp(ca, k)
                r, g, ra = ldexp(r, -k), ldexp(g, -k), ldexp(ra, -k)
            while (c < g and max(f, c, ca) < _SFMAX2
                   and min(r, g, ra) > _SFMIN2):
                f, c, ca = f * 2.0, c * 2.0, ca * 2.0
                r, g, ra = r / 2.0, g / 2.0, ra / 2.0
            g = c / 2.0
            k = _doublings(r, g, (r, ra), (f, c, g, ca)) if g >= r else 0
            if k:
                f, c, g, ca = ldexp(f, -k), ldexp(c, -k), ldexp(g, -k), \
                    ldexp(ca, -k)
                r, ra = ldexp(r, k), ldexp(ra, k)
            while (g >= r and max(r, ra) < _SFMAX2
                   and min(f, c, g, ca) > _SFMIN2):
                f, c, g, ca = f / 2.0, c / 2.0, g / 2.0, ca / 2.0
                r, ra = r * 2.0, ra * 2.0
            if c + r >= 0.95 * s:
                continue
            if f < 1.0 and scale[i] < 1.0 and f * scale[i] <= _SFMIN1:
                continue
            if f > 1.0 and scale[i] > 1.0 and scale[i] >= _SFMAX1 / f:
                continue
            scale[i] *= f
            noconv = True
            g = 1.0 / f                      # row i times 1/f, column i times f
            if i < n - 1:
                sup[i] *= g
            else:
                last = [x * g for x in last]
            if i:
                sup[i - 1] *= f
            last[i] *= f
    return sup, last, scale


def integrator(gain: float = 1.0, input_name: str = "u",
               output_name: str = "y") -> StateSpace:
    return StateSpace(np.zeros((1, 1)), [[1.0]], [[gain]], [[0.0]],
                      (input_name,), (output_name,))


# --------------------------------------------------------------------------
# interconnection
# --------------------------------------------------------------------------

#: Memory budget of one row block of the feedback product in ``compose``.
_COMPOSE_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class EntrywiseBlock:
    """A MIMO block realized entry by entry: output ``i`` reads input ``j``
    through the SISO realization of each part ``(i, j, ss)``; entries
    without a part are zero.  ``compose`` writes the parts straight into
    its open-loop matrices, so the block's mostly-zero A is never formed.
    """

    parts: tuple[tuple[int, int, StateSpace], ...]
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def __post_init__(self):
        p, m = len(self.output_names), len(self.input_names)
        for i, j, ss in self.parts:
            if ss.D.shape != (1, 1) or not (0 <= i < p and 0 <= j < m):
                raise ValueError(f"part ({i}, {j}) is not a SISO entry of "
                                 f"a {p} x {m} block")

    @property
    def n_states(self) -> int:
        return sum(ss.n_states for _, _, ss in self.parts)


def _interconnection(blocks: Mapping[str, StateSpace | EntrywiseBlock],
                     connections: Sequence[tuple[str, str, float]],
                     external_inputs: Sequence[str],
                     external_outputs: Sequence[str]):
    """The open-loop matrices of ``compose``: the block-diagonal (A, B, C,
    D) of all blocks, the feedback K (block inputs from block outputs), the
    external input map E and the external output selection F.

    The parts of an ``EntrywiseBlock`` follow each other on the diagonal of
    A in their given order.  Parts that read the same input share its
    column of B, and parts that write the same output share its row of C;
    each part's D is added to a zero, so a -0.0 enters D as 0.0.  A
    StateSpace block is copied in as it is."""
    labels = list(blocks)
    in_index: dict[str, int] = {}
    out_index: dict[str, int] = {}
    n_states = m_tot = p_tot = 0
    for lbl in labels:
        blk = blocks[lbl]
        for ch in blk.input_names:
            key = f"{lbl}.{ch}"
            if key in in_index:
                raise ValueError(f"duplicate input channel {key}")
            in_index[key] = m_tot
            m_tot += 1
        for ch in blk.output_names:
            key = f"{lbl}.{ch}"
            if key in out_index:
                raise ValueError(f"duplicate output channel {key}")
            out_index[key] = p_tot
            p_tot += 1
        n_states += blk.n_states

    A = np.zeros((n_states, n_states))
    B = np.zeros((n_states, m_tot))
    C = np.zeros((p_tot, n_states))
    D = np.zeros((p_tot, m_tot))
    ix = iu = iy = 0
    for lbl in labels:
        blk = blocks[lbl]
        m, p = len(blk.input_names), len(blk.output_names)
        if isinstance(blk, EntrywiseBlock):
            for i, j, ss in blk.parts:
                n = ss.n_states
                A[ix:ix + n, ix:ix + n] = ss.A
                B[ix:ix + n, iu + j] = ss.B[:, 0]
                C[iy + i, ix:ix + n] = ss.C[0]
                D[iy + i, iu + j] += ss.D[0, 0]
                ix += n
        else:
            n = blk.n_states
            A[ix:ix + n, ix:ix + n] = blk.A
            B[ix:ix + n, iu:iu + m] = blk.B
            C[iy:iy + p, ix:ix + n] = blk.C
            D[iy:iy + p, iu:iu + m] = blk.D
            ix += n
        iu, iy = iu + m, iy + p

    ext_in = {name: j for j, name in enumerate(external_inputs)}
    K = np.zeros((m_tot, p_tot))
    E = np.zeros((m_tot, len(external_inputs)))
    for dst, src, gain in connections:
        if dst not in in_index:
            raise KeyError(f"unknown input channel {dst!r}")
        i = in_index[dst]
        if src in out_index:
            K[i, out_index[src]] += gain
        elif src in ext_in:
            E[i, ext_in[src]] += gain
        else:
            raise KeyError(f"unknown source channel {src!r}")

    F = np.zeros((len(external_outputs), p_tot))
    for i, name in enumerate(external_outputs):
        if name not in out_index:
            raise KeyError(f"unknown output channel {name!r}")
        F[i, out_index[name]] = 1.0
    return A, B, C, D, K, E, F


def compose(blocks: Mapping[str, StateSpace | EntrywiseBlock],
            connections: Sequence[tuple[str, str, float]],
            external_inputs: Sequence[str],
            external_outputs: Sequence[str]) -> StateSpace:
    """General signal-flow interconnection with summing junctions.

    ``blocks`` maps a label to a StateSpace or an ``EntrywiseBlock``;
    channels are referenced as ``"label.channel"``.  Each connection is
    ``(dst_input, src, gain)`` where ``src`` is either a block output or one
    of the external input names.  Multiple connections to the same input
    sum.  The result exposes exactly ``external_inputs`` ->
    ``external_outputs``.  The parts of an ``EntrywiseBlock`` are written
    one by one into the open-loop matrices, so the only n x n array is the
    result's A.

    The closed-loop A is A + B M K C with M = (I - K D)^-1.  The product is
    added to A in blocks of rows within ``_COMPOSE_BLOCK_BYTES``, so that no
    second n x n array is held next to A; up to n = 512 one block is the
    whole matrix.
    """
    A, B, C, D, K, E, F = _interconnection(blocks, connections,
                                           external_inputs, external_outputs)
    n_states = A.shape[0]
    loop = np.eye(K.shape[0]) - K @ D
    if np.linalg.cond(loop) > MAX_COND:
        raise AlgebraicLoop("feedthrough loop matrix is near singular")
    M = np.linalg.inv(loop)
    BM = B @ M
    BMK = BM @ K
    rows = max(1, _COMPOSE_BLOCK_BYTES // (8 * max(1, n_states)))
    for r in range(0, n_states, rows):
        A[r:r + rows] += BMK[r:r + rows] @ C
    B_cl = BM @ E
    C_cl = F @ (C + D @ M @ K @ C)
    D_cl = F @ D @ M @ E
    return StateSpace(A, B_cl, C_cl, D_cl,
                      tuple(external_inputs), tuple(external_outputs))


# --------------------------------------------------------------------------
# analysis primitives
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    value: complex
    structural: bool


def _zero_modes(eigvals: np.ndarray):
    """The zero-mode rule shared by ``poles`` and ``dc_gain``: rho, the
    spectral radius; tol = max(1e-7 rho, 1e-12); and the mask of the
    eigenvalues within tol of the origin."""
    rho = float(np.max(np.abs(eigvals)))
    tol = max(1e-7 * rho, 1e-12)
    return rho, tol, np.abs(eigvals) <= tol


def _eig_structural_mask(A: np.ndarray, eigvals: np.ndarray):
    """Mask of structural (reference) modes: semisimple eigenvalues at the
    origin, within 1e-7 of the spectral radius scale.  Defective origin
    poles (e.g. a double integrator) are genuine and left untagged.

    A cluster of k >= 2 near-zero eigenvalues is tagged up to the nullity
    of A, the singular values within tol.  A lone near-zero eigenvalue is
    simple, hence semisimple, and is tagged without the SVD: every
    eigenvalue bounds the smallest singular value from above,
    sigma_min(A) <= |lambda| <= tol, so the nullity is at least one."""
    n = A.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    _, tol, near_zero = _zero_modes(eigvals)
    k = int(np.count_nonzero(near_zero))
    if k <= 1:
        return near_zero
    sv = np.linalg.svd(A, compute_uv=False)
    nullity = int(np.count_nonzero(sv <= tol))
    mask = np.zeros(n, dtype=bool)
    order = np.argsort(np.abs(eigvals))
    tagged = 0
    for i in order:
        if near_zero[i] and tagged < nullity:
            mask[i] = True
            tagged += 1
    return mask


def _channel_index(names: tuple[str, ...], name, kind: str) -> int:
    """Where `name` is among a model's external `kind` channel `names`."""
    if name not in names:
        raise KeyError(f"unknown {kind} channel {name!r}")
    return names.index(name)


def poles(ss: StateSpace) -> list[Pole]:
    """Eigenvalues of A; structural (angle-reference) zero modes tagged so
    stability verdicts can exclude them."""
    mask = _eig_structural_mask(ss.A, ss.eigvals)
    return [Pole(complex(v), bool(m)) for v, m in zip(ss.eigvals, mask)]


@dataclass(frozen=True)
class FrequencyResponse:
    omega: np.ndarray                   # rad/s, ascending
    values: np.ndarray                  # (n_omega,) complex


def freq_response(ss: StateSpace, input_name: str, output_name: str,
                  omega_grid) -> FrequencyResponse:
    """C[o] (jwI - A)^-1 B[:, j] + D[o, j] of the channel from input j to
    output o, by one exact complex solve for that input's column per grid
    point.  Both names are looked up before any solve."""
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1 or omega.size == 0:
        raise ValueError("omega grid must be a non-empty 1-D array")
    if not (np.all(np.isfinite(omega)) and omega[0] > 0
            and np.all(np.diff(omega) > 0)):
        raise ValueError("omega grid must be finite, positive and strictly "
                         "ascending")
    j = _channel_index(ss.input_names, input_name, "input")
    o = _channel_index(ss.output_names, output_name, "output")
    vals = np.full(omega.size, ss.D[o, j], dtype=complex)
    if ss.n_states == 0:
        return FrequencyResponse(omega, vals)
    I = np.eye(ss.n_states)
    for i, w in enumerate(omega):
        s = 1j * w
        if np.min(np.abs(s - ss.eigvals)) < 1e-9 * (1.0 + abs(s)):
            raise SingularAtFrequency(f"omega = {w} rad/s lies on a pole of A")
        vals[i] += ss.C[o] @ np.linalg.solve(s * I - ss.A, ss.B[:, j])
    return FrequencyResponse(omega, vals)


@dataclass(frozen=True)
class TimeSeries:
    t: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.size < 2:
            raise ValueError("time series needs at least two samples")
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0) or dt[0] <= 0:
            raise ValueError("time grid must be uniform with dt > 0")
        for name, x in self.channels.items():
            if len(x) != t.size:
                raise ValueError(f"channel {name!r} length mismatch")
        object.__setattr__(self, "t", t)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


#: The [13/13] Padé numerator of exp, b_j = (26 - j)! / (j! (13 - j)!), and
#: theta_13, the largest 2^-s ||A|| at which its backward error stays below
#: the unit roundoff (Al-Mohy & Higham 2009, Table 3.1).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 4.25
_UNIT_ROUNDOFF = 2.0 ** -53


def _norm1(X: np.ndarray) -> float:
    return float(np.abs(X).sum(axis=0).max())


def _ell(A: np.ndarray, m: int) -> int:
    """Extra squarings that keep the [m/m] approximant's relative backward
    error below the unit roundoff: ell(A, m) of Al-Mohy & Higham (2009),
    from the exact 1-norm of |A|^(2m+1)."""
    norm = _norm1(A)
    if norm == 0.0:
        return 0
    absA = np.abs(A)
    v = np.ones(A.shape[0])
    for _ in range(2 * m + 1):               # the column sums of |A|^k
        v = v @ absA
    # |c_2m+1| = (m!)^2 / ((2m)! (2m+1)!), the leading coefficient of the
    # error series exp(x) - r_m(x)
    f = math.factorial
    alpha = f(m) ** 2 / (f(2 * m) * f(2 * m + 1)) * float(v.max()) / norm
    if alpha == 0.0:
        return 0
    return max(math.ceil(math.log2(alpha / _UNIT_ROUNDOFF) / (2 * m)), 0)


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: Al-Mohy & Higham, SIAM
    J. Matrix Anal. Appl. 31(3), 2009, Algorithm 5.1 with exact 1-norms, at
    Padé degree 13 only.  Every preset step matrix at dt = 1e-4 ... 1e-1
    needs degree 13; on smaller ones the unscaled [13/13] approximant is as
    accurate as a lower degree (within 6e-16 of SciPy at dt = 1e-7)."""
    n = A.shape[0]
    if n == 0:
        return np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    d6 = _norm1(A6) ** (1.0 / 6.0)
    d8 = _norm1(A4 @ A4) ** 0.125
    eta = min(max(d6, d8), max(d8, _norm1(A4 @ A6) ** 0.1))
    s = max(math.ceil(math.log2(eta / _THETA13)), 0) if eta else 0
    s += _ell(A * 2.0 ** -s, 13)
    A, A2, A4, A6 = (P * 2.0 ** (-k * s)
                     for k, P in ((1, A), (2, A2), (4, A4), (6, A6)))
    # r_13(A) = (V - U)^-1 (V + U), U and V the odd and even parts of the
    # Padé numerator (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), as
    # I + 2 (V - U)^-1 U: that keeps the relative accuracy of r_13(A) - I,
    # whose error the squarings amplify (on ``parallel_ac_dc`` at dt = 10 ms:
    # 5e-15 against 2.8e-13 off a 40-digit exponential).
    b, I = _PADE13, np.eye(n)
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    X = 2.0 * np.linalg.solve(V - U, U)
    X[np.diag_indices_from(X)] += 1.0
    for _ in range(s):
        X = X @ X
    return X


#: Memory budget of the maps precomputed for one block of ``step_response``.
_STEP_BLOCK_BYTES = 1 << 21
#: Largest output array (samples x outputs x 8 bytes) of ``step_response``.
_STEP_OUTPUT_BYTES = 1 << 30


def step_response(ss: StateSpace, input_name: str, T: float,
                  dt: float) -> TimeSeries:
    """Unit-step response on the named input via exact zero-order-hold
    discretization of (A, B) over the step dt.  All outputs are returned.

    The recurrence x_{i+1} = Ad x_i + Bd, y_i = C x_i + d runs in blocks of
    K samples.  With x_j = S_j Bd, S_j = sum_{l<j} Ad^l, the zero-state
    solution, a block starting in state x reads y_{i+j} = C Ad^j x +
    (C x_j + d), and the next block starts in Ad^K x + x_K.  K is the
    largest power of two whose maps fit in ``_STEP_BLOCK_BYTES``.  Raises
    ValueError when the output would exceed ``_STEP_OUTPUT_BYTES``."""
    if not 0 < dt <= T / 100.0 < math.inf:
        raise ValueError(f"require 0 < dt <= T/100 < inf, got T = {T}, "
                         f"dt = {dt}")
    if (T / dt + 1.0) * ss.n_outputs * 8 > _STEP_OUTPUT_BYTES:
        raise ValueError(f"{T / dt + 1.0:.3g} samples of {ss.n_outputs} "
                         f"outputs exceed {_STEP_OUTPUT_BYTES} bytes")
    j = _channel_index(ss.input_names, input_name, "input")
    for p in poles(ss):
        if not p.structural and p.value.real > 0:
            warnings.warn("model has unstable non-structural poles",
                          UnstableWarning, stacklevel=2)
            break
    n, p = ss.n_states, ss.n_outputs
    steps = int(round(T / dt))
    t = np.arange(steps + 1) * dt
    d = ss.D[:, j]
    if n == 0:
        y = np.empty((steps + 1, p))
        y[:] = d
        return TimeSeries(t, dict(zip(ss.output_names, y.T)))
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n:] = ss.B[:, j:j + 1]
    Md = _expm(M * dt)
    Ad = Md[:n, :n]
    Bd = Md[:n, n]
    # Doubling: from the maps for j < L, those for L <= j < 2L.
    CA = ss.C[None]                          # C Ad^j, shape (L, p, n)
    X = np.zeros((1, n))                     # x_j
    AL = Ad                                  # Ad^L
    while 2 * len(X) * (p + 1) * n * 8 <= _STEP_BLOCK_BYTES \
            and len(X) < steps + 1:
        xL = Ad @ X[-1] + Bd
        CA = np.concatenate([CA, CA @ AL])
        X = np.concatenate([X, X @ AL.T + xL])
        AL = AL @ AL
    K = len(X)
    xK = Ad @ X[-1] + Bd
    blocks = -(-(steps + 1) // K)
    starts = np.empty((blocks, n))
    x = np.zeros(n)
    for b in range(blocks):
        starts[b] = x
        x = AL @ x + xK
    y = starts @ CA.reshape(K * p, n).T
    y += (X @ ss.C.T + d).reshape(1, K * p)
    y = y.reshape(blocks * K, p)[:steps + 1]
    return TimeSeries(t, dict(zip(ss.output_names, y.T)))


#: Largest residue of the zero modes in ``dc_gain``, relative to
#: 1 + |B| |C|, that still counts as an angle-reference mode.
_RESIDUE_TOL = 1e-6


def _bordered(A: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The bordered matrix [[A, P], [Q^T, 0]] for n x k borders P and Q."""
    n, k = P.shape
    K = np.zeros((n + k, n + k))
    K[:n, :n] = A
    K[:n, n:] = P
    K[n:, :n] = Q.T
    return K


def _zero_mode_bases(A: np.ndarray, k: int):
    """Orthonormal bases V and W (n x k) of the right and left null spaces
    of A, whose nullity is k, from one bordered matrix.

    With fixed random n x k borders P and Q, K = [[A, P], [Q^T, 0]] is
    nonsingular exactly when P's columns complete the range of A and Q's
    the range of A^T (Keller, SIAM J. Sci. Stat. Comput. 4(4), 1983).
    Then K [X; Y] = [0; I] forces A X = -P Y into range(A) and range(P),
    so Y = 0, A X = 0 and Q^T X = I: X spans the right null space, and the
    same right-hand side in K^T gives the left one.  When the zero modes
    lie only near the origin, A X = -P Y is small, and ``dc_gain``'s
    defect check bounds it.  The two solves run one after the other, so
    that besides A at most two (n + k)^2 arrays are alive: K and the
    solver's copy of it."""
    n = A.shape[0]
    P, Q = np.random.default_rng(0).standard_normal((2, n, k))
    K = _bordered(A, P, Q)
    rhs = np.zeros((n + k, k))
    rhs[n:] = np.eye(k)
    V = np.linalg.qr(np.linalg.solve(K, rhs)[:n])[0]
    W = np.linalg.qr(np.linalg.solve(K.T, rhs)[:n])[0]
    return V, W


def dc_gain(ss: StateSpace) -> np.ndarray:
    """Steady-state gain D - C A^# B, with A^# the group inverse of A.

    Eigenvalues within max(1e-7 rho, 1e-12) of the origin (rho the spectral
    radius) are zero modes; without them A^# = A^-1, one solve.  Otherwise,
    with V and W orthonormal bases of the right and left null spaces of A
    from a bordered matrix (``_zero_mode_bases``), the zero modes must be
    semisimple (AV = 0, W^T A = 0, W^T V nonsingular), so that
    G(s) = R/s + D - C A^# B + O(s) with residue R = C V (W^T V)^-1 W^T B
    (Campbell & Meyer, Generalized Inverses of Linear Transformations,
    ch. 7).  The zero modes count as angle-reference modes when R vanishes;
    then x = A^# B solves the bordered system [[A, V], [W^T, 0]] [x; y] =
    [B; 0].  So a gain takes at most three factorizations of order n + k.
    Raises NoDcGain when a genuinely integrating mode (nonzero residue at
    the origin, or a defective origin cluster) is present.
    """
    n = ss.n_states
    if n == 0:
        return ss.D.copy()
    A = ss.A
    rho, tol, near_zero = _zero_modes(ss.eigvals)
    k = int(np.count_nonzero(near_zero))
    if k == 0:
        return ss.D - ss.C @ np.linalg.solve(A, ss.B)
    V, W = _zero_mode_bases(A, k)
    bound = tol * max(1.0, rho)
    WV = W.T @ V
    if (np.linalg.norm(A @ V) > bound or np.linalg.norm(W.T @ A) > bound
            or np.linalg.cond(WV) > MAX_COND):
        raise NoDcGain("defective pole cluster at the origin")
    scale = 1.0 + float(np.linalg.norm(ss.B)) * float(np.linalg.norm(ss.C))
    residue = ss.C @ V @ np.linalg.solve(WV, W.T @ ss.B)
    if np.max(np.abs(residue)) > _RESIDUE_TOL * scale:
        raise NoDcGain("integrating mode with nonzero residue at s=0")
    rhs = np.zeros((n + k, ss.n_inputs))
    rhs[:n] = ss.B
    return ss.D - ss.C @ np.linalg.solve(_bordered(A, V, W), rhs)[:n]


@dataclass(frozen=True)
class Spectrum:
    freq_hz: np.ndarray
    magnitude: np.ndarray


def fft_magnitude(ts: TimeSeries, channel: str) -> Spectrum:
    """Single-sided magnitude spectrum after mean removal; frequency
    resolution 1/(N dt)."""
    i = _channel_index(tuple(ts.channels), channel, "output")
    x = np.asarray(list(ts.channels.values())[i], dtype=float)
    n = x.size
    if n < 16:
        raise TooShort(f"need at least 16 samples, got {n}")
    x = x - np.mean(x)
    mag = np.abs(np.fft.rfft(x)) * 2.0 / n
    freq = np.fft.rfftfreq(n, ts.dt)
    return Spectrum(freq, mag)

"""Dense complex linear-algebra kernel.

Factorizations, numerical rank, subspace bases and symmetric gauge
norms (operator, Schatten-p, Ky Fan-k).  Everything downstream builds on
the routines here.  Matrices are plain complex ``numpy`` arrays; helpers
validate shape and finiteness at the boundaries, and ``same_shape`` that
the operands of a function share one shape.

The tolerances of every check and decision are the named constants
below.  Each factorization has one value type, whose layout only this
module reads: ``SvdResult`` (``svd``, which also holds the polar parts
of A and the SVD of V_A) and ``PsdEig`` (``psd_eigh``,
``codim.projector_eig``); rank decisions elsewhere read their ``rank``.
Each keeps its input as ``matrix`` and is returned as is when passed
back, so a function that factorizes an argument also takes its
factorization.  ``eigh`` and ``tridiagonalize`` return tuples.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, PreconditionError


# The rank cutoff, on which every stratum, chart domain and continuity
# verdict turns, and the absolute residual floor:
RANK_REL = 1e-10            # singular values <= this max(m, n) sigma_1 count as 0
RESIDUAL_ABS = 1e-10        # a residual or norm <= this counts as 0

# Acceptance thresholds of checks on constructions that are exact in exact
# arithmetic; one value serves every caller.
#   UNITARY_REL: a constructed n x n U is unitary when ||UU* - I|| <= UNITARY_REL n.
#   IDENTITY_REL: an exact identity holds, or a block that vanishes
#       exactly vanishes, when its residual is at most IDENTITY_REL times
#       the scale of its inputs.
UNITARY_REL = 1e-10
IDENTITY_REL = 1e-8
# Checks on input matrices, and decisions of the certifiers:
HERMITIAN_REL = 1e-10       # ||H - H*||_F, or -min eig of PSD C, <= this times its scale
PROJECTOR_REL = 1e-9        # P or V*V: ||P^2 - P|| <= this max(1, ||P||), ||P - P*|| <= this
PROJECTOR_SPECTRUM = 1e-8   # and each eigenvalue of P lies within this of 0 or 1
INTERSECTION_COS = 1.0 - 1e-8   # principal angles with cosine at least this are zero
GAP_MARGIN = 1e-6           # a projector gap above 1 - GAP_MARGIN does not count as < 1
# Boundedness proxy: the tail sup of ||B_n^+|| may exceed ||B^+|| by at
# most this factor before condition (ii) is declared failed.
BOUNDEDNESS_FACTOR = 10.0
CANCELLATION_REL = 1e-8     # f(lambda) = alpha + beta lambda - integral keeps this
                            # relative resolution after rounding of its terms
REPRESENTATION_ABS = 1e-12  # JSON (alpha, beta) of sqrt match the built-in's to this
QUAD_TOL = 1e-10            # successive levels agree to this times ∫‖fn‖dν
TAYLOR_RATIO_SLACK = 1e-6   # a Taylor remainder passes at remainder/bound <= 1 + this,
TAYLOR_ROUNDOFF_REL = 1e-12 # or, at any ratio, when it is at most this times
                            # ||f(C + Delta)||_F: it is then roundoff
ROUND_TRIP_ABS = 1e-7       # a chart round trip passes at ||back - B||_F <= this
RIEMANN_MAX_CELLS = 2**18   # most cells a dyadic Riemann sum allocates (p = 12
                            # at t_max = 64); a request for more is refused
RIEMANN_TAIL_REL = 0.1      # a Riemann sum's truncation tail beyond t_max stays
                            # below this times ||D - C||_g


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d complex array with finite entries.

    An ``SvdResult`` or ``PsdEig`` gives the matrix it factorizes, as is.
    """
    if isinstance(a, (SvdResult, PsdEig)):
        return a.matrix
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise PreconditionError(f"expected a 2-d array, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise PreconditionError(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():     # a complex entry is finite if both parts are
        raise PreconditionError("matrix entries must be finite")
    return m


def same_shape(*mats) -> tuple:
    """The shape that the operands ``mats`` share, each validated by
    ``as_matrix``; PreconditionError unless they share one.  The operands
    are not rebound, so a factorization passed in is still one."""
    shapes = dict.fromkeys(as_matrix(m).shape for m in mats)
    if len(shapes) > 1:
        got = " and ".join(map(str, shapes))
        raise PreconditionError(f"operands must share one shape, got {got}")
    return next(iter(shapes))


# ---------------------------------------------------------------------------
# JSON interchange: {"rows": m, "cols": n, "data": [[re, im], ...]} row-major.


def matrix_to_json(a) -> dict:
    m = as_matrix(a)
    flat = m.reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.column_stack((flat.real, flat.imag)).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed matrix JSON: {exc}") from exc
    # a JSON integer, not a float, string or bool that int() would accept
    if not all(type(n) is int for n in (rows, cols)):
        raise PreconditionError("matrix JSON rows and cols must be integers")
    if not isinstance(data, list):
        raise PreconditionError("matrix JSON data must be a list")
    if rows < 1 or cols < 1:
        raise PreconditionError("matrix dimensions must be positive")
    if len(data) != rows * cols:
        raise PreconditionError(
            f"data length {len(data)} does not match {rows}x{cols}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed matrix entry: {exc}") from exc
    if any(type(x) is bool for pair in data for x in pair):
        raise PreconditionError("matrix entries must be numbers, not booleans")
    return as_matrix(flat.reshape(rows, cols))


def save_matrix(a, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(matrix_to_json(a)))


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(read_json(path))


def read_json(path):
    """The JSON value in a file, or PreconditionError if it is not parseable UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise PreconditionError(f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Symmetric gauge norms.


@dataclass(frozen=True)
class GaugeNorm:
    """A symmetric gauge function evaluated on singular values.

    kind is one of "op", "schatten", "kyfan".  Schatten carries an
    exponent p >= 1, Ky Fan a positive integer k.
    """

    kind: str
    p: float = 0.0
    k: int = 0

    def __post_init__(self):
        """Refuse an unknown kind, a Schatten p < 1, a Ky Fan k not an
        integer >= 1, and a p or k off 0 where the kind does not use it."""
        if self.kind == "schatten":
            if not self.p >= 1:     # NaN fails too
                raise PreconditionError("Schatten exponent must satisfy p >= 1")
            object.__setattr__(self, "p", float(self.p))
        elif self.kind == "kyfan":
            k = self.k
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
                raise PreconditionError(f"Ky Fan index must be an integer >= 1, got {k!r}")
            object.__setattr__(self, "k", int(k))
        elif self.kind != "op":
            raise PreconditionError(f"unknown gauge kind {self.kind!r}")
        if self.kind != "schatten" and self.p != 0:
            raise PreconditionError(f"the {self.kind} gauge takes no exponent p, got {self.p!r}")
        if self.kind != "kyfan" and self.k != 0:
            raise PreconditionError(f"the {self.kind} gauge takes no index k, got {self.k!r}")

    @staticmethod
    def operator() -> "GaugeNorm":
        return GaugeNorm("op")

    @staticmethod
    def schatten(p: float) -> "GaugeNorm":
        return GaugeNorm("schatten", p=p)

    @staticmethod
    def kyfan(k: int) -> "GaugeNorm":
        return GaugeNorm("kyfan", k=k)

    @staticmethod
    def parse(text: str) -> "GaugeNorm":
        """Parse "op", "s1", "s2", "sp:<p>" or "kyfan:<k>"."""
        if text == "op":
            return GaugeNorm.operator()
        if text == "s1":
            return GaugeNorm.schatten(1)
        if text == "s2":
            return GaugeNorm.schatten(2)
        try:
            if text.startswith("sp:"):
                return GaugeNorm.schatten(float(text[3:]))
            if text.startswith("kyfan:"):
                return GaugeNorm.kyfan(int(text[6:]))
        except ValueError as exc:
            raise PreconditionError(f"malformed gauge spec {text!r}: {exc}") from exc
        raise PreconditionError(f"unknown gauge spec {text!r}")

    def of_singular_values(self, s) -> float:
        """The gauge of the singular values s.  Schatten-p is taken as
        s_1 (sum (s_i/s_1)^p)^{1/p}: the sum lies in [1, len(s)], so it
        neither under- nor overflows at any scale or exponent."""
        s = np.sort(np.abs(np.asarray(s, dtype=float)))[::-1]
        if s.size == 0:
            return 0.0
        if self.kind == "op":
            return float(s[0])
        if self.kind == "schatten":
            if np.isinf(self.p) or s[0] == 0.0:
                return float(s[0])
            return float(s[0] * np.sum((s / s[0]) ** self.p) ** (1.0 / self.p))
        return float(np.sum(s[: self.k]))

    def label(self) -> str:
        if self.kind == "op":
            return "op"
        if self.kind == "schatten":
            return f"s{self.p:g}"
        return f"kyfan:{self.k}"


OP_NORM = GaugeNorm.operator()
TRACE_NORM = GaugeNorm.schatten(1)
FROBENIUS_NORM = GaugeNorm.schatten(2)


def gauge_norm(a, g: GaugeNorm = OP_NORM) -> float:
    """Apply the symmetric gauge ``g`` to the singular values of ``a``.

    The Schatten-2 (Frobenius) norm is the root of the sum of the squared
    moduli of the entries, so it is read from the entries and takes no SVD,
    on A scaled by a power of two (``_pow2_scaled``): its squares cannot
    overflow, and below overflow the value is that of the unscaled sum.
    """
    if g.kind == "schatten" and g.p == 2:
        scaled, e = _pow2_scaled(as_matrix(a))
        try:
            return math.ldexp(float(np.linalg.norm(scaled)), e)
        except OverflowError:       # the norm is past the largest double
            return math.inf
    return g.of_singular_values(_singular_values(a))


def _pow2_scaled(m: np.ndarray):
    """(2^-e M, e), with e the exponent that brings M's largest real or
    imaginary part into [1/2, 1) (short of it for subnormal M).  Scaling by a
    power of two is exact, so a norm of the scaled matrix cannot overflow
    and scales back bit for bit."""
    top = float(np.abs(m.reshape(-1).view(np.float64)).max())
    e = max(math.frexp(top)[1], -1021)
    return m * math.ldexp(1.0, -e), e


def _singular_values(a) -> np.ndarray:
    """The singular values of A, nonincreasing, without the singular vectors."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


# ---------------------------------------------------------------------------
# Factorizations.


@dataclass(frozen=True)
class SvdResult:
    """Full SVD of A with its numerical rank r: the pseudoinverse report.

    The four fundamental subspaces of A, as orthonormal bases, A^+ and
    gamma(A) are read off the factors; no further factorization is needed.
    A^+ is built on first read and kept, a projector never: callers apply
    the bases.  ``matrix`` is A itself, as validated by ``as_matrix``.
    """

    U: np.ndarray        # rows x rows, unitary
    singular_values: np.ndarray  # length min(rows, cols), nonincreasing
    Vt: np.ndarray       # cols x cols, rows of V-conjugate-transpose
    rank: int
    rank_tolerance: float
    matrix: np.ndarray

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of R(A)."""
        return self.U[:, : self.rank]

    @property
    def corange_basis(self) -> np.ndarray:
        """Orthonormal basis of R(A)^perp."""
        return self.U[:, self.rank :]

    @property
    def row_basis(self) -> np.ndarray:
        """Orthonormal basis of N(A)^perp."""
        return self.Vt[: self.rank, :].conj().T

    @property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of N(A)."""
        return self.Vt[self.rank :, :].conj().T

    @cached_property
    def pinv(self) -> np.ndarray:
        """A^+ = V_r S_r^{-1} U_r*."""
        s_r = self.singular_values[: self.rank]
        return (self.row_basis / s_r) @ self.range_basis.conj().T

    @property
    def gamma(self) -> float:
        """Reduced minimum modulus: the least nonzero singular value; 0 for rank 0."""
        return float(self.singular_values[self.rank - 1]) if self.rank else 0.0

    @property
    def pinv_norm(self) -> float:
        """||A^+|| = 1/gamma(A); 0 for the zero matrix."""
        return 1.0 / self.gamma if self.rank else 0.0

    @property
    def polar_factor(self) -> np.ndarray:
        """V_A = U_r V_r*, the partial isometry with V_A|A| = A; built on each read."""
        return self.U[:, : self.rank] @ self.Vt[: self.rank, :]

    @cached_property
    def polar_factor_svd(self) -> SvdResult:
        """The SVD of V_A, read off A's with singular values 1 on the rank:
        its ``matrix`` is V_A, formed once, its ``pinv`` V_A*, its
        ``modulus`` the initial projector and its ``gamma`` 1."""
        s = np.zeros(len(self.singular_values))
        s[: self.rank] = 1.0
        cutoff = RANK_REL * max(self.matrix.shape) * s[0]
        return SvdResult(self.U, s, self.Vt, self.rank, cutoff, self.polar_factor)

    @cached_property
    def modulus(self) -> np.ndarray:
        """|A| = (A*A)^{1/2} = V S V*, over every singular value (S zero-padded
        to n), halved before the Hermitian sum so that it cannot overflow."""
        s = np.zeros(self.Vt.shape[0])
        s[: len(self.singular_values)] = self.singular_values
        vs = self.Vt.T * s
        np.conjugate(vs, out=vs)        # V S, with no copy of V
        mod = vs @ self.Vt
        del vs                          # at most two n x n temporaries at once
        mod *= 0.5
        mod += mod.conj().T
        return mod

    @cached_property
    def modulus_eig(self) -> PsdEig:
        """The psd_eigh of |A|, read off the SVD: Q is V with its columns
        reversed, w the singular values ascending (zero past the rank).

        So |A| has the rank of A by construction.  For tall A that cutoff,
        relative to max(m, n) sigma_1, may exceed the one a psd_eigh of |A|
        takes, relative to n sigma_1.
        """
        w = np.zeros(self.Vt.shape[0])
        w[: self.rank] = self.singular_values[: self.rank]
        return PsdEig(self.Vt[::-1].conj().T, w[::-1], self.rank, self.modulus)


def svd(a) -> SvdResult:
    """Full SVD with a declared numerical-rank cutoff.

    rank_tolerance = RANK_REL * max(m, n) * sigma_1; the zero matrix
    gets tolerance 0 and rank 0.  LAPACK convergence failures are
    re-raised as ConvergenceError, overflowing singular values as
    PreconditionError.  An ``SvdResult`` is returned as is.
    """
    if isinstance(a, SvdResult):
        return a
    m = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    if not np.all(np.isfinite(s)):
        raise PreconditionError("input too large: its singular values overflow")
    sigma1 = float(s[0]) if s.size else 0.0
    cutoff = RANK_REL * max(m.shape) * sigma1
    rank = int(np.sum(s > cutoff))
    return SvdResult(u, s, vt, rank, cutoff, m)


def hermitian_checked(h, name: str = "matrix") -> np.ndarray:
    """``as_matrix(h)``, refused unless it is square and Hermitian to the
    relative tolerance HERMITIAN_REL, ||H - H*||_F <= HERMITIAN_REL ||H||_F.

    Both norms are taken on H scaled by a power of two (``_pow2_scaled``),
    so the check is the same at every scale, neither norm overflows near
    the overflow threshold, and the zero matrix passes.  ``name`` names H
    in the error message.
    """
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"{name} must be square")
    scaled, _ = _pow2_scaled(m)
    scale = np.linalg.norm(scaled)
    skew = np.linalg.norm(scaled - scaled.conj().T)
    if skew > HERMITIAN_REL * scale:
        raise PreconditionError(
            f"{name} is not Hermitian: ||H - H*||_F / ||H||_F = {skew / scale:.3e}"
        )
    return m


def idempotent_checked(p: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Square complex P, refused unless ||P^2 - P||_F <= PROJECTOR_REL max(1, ||P||_F).

    The check is multiplied through by the exact 2^-e of ``_pow2_scaled``,
    so it decides as the unscaled one wherever that is finite, and a P
    whose 2^-e P^2 overflows, or that is not finite, as an overflowed
    product can be, is refused without a warning.  ``name`` names P in
    the error message.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled, e = _pow2_scaled(p)
        defect = np.linalg.norm(scaled @ p - scaled)
        scale = max(math.ldexp(1.0, -e), np.linalg.norm(scaled))
    if not defect <= PROJECTOR_REL * scale < math.inf:
        raise PreconditionError(f"{name} is not idempotent")
    return p


def eigh(h):
    """Spectral decomposition of a Hermitian matrix.

    The input is symmetrized internally; inputs that ``hermitian_checked``
    refuses are rejected.  Returns (Q, eigenvalues) with eigenvalues ascending.
    """
    return _eigh_checked(hermitian_checked(h))


def _eigh_checked(m: np.ndarray):
    """``eigh`` of a matrix that ``hermitian_checked`` has passed."""
    sym = 0.5 * (m + m.conj().T)
    try:
        w, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    return q, w


@dataclass(frozen=True)
class PsdEig:
    """C = Q diag(w) Q* for PSD C, w ascending.

    The last ``rank`` columns of Q span R(C), the others N(C), and the
    values outside the range are 0: ``psd_eigh`` cuts them at RANK_REL,
    ``codim.projector_eig`` at 1/2.  Roots, pseudoinverse and projectors
    are built on each call, not kept.  ``matrix`` is C itself, as
    validated by ``as_matrix``.
    """

    Q: np.ndarray
    w: np.ndarray
    rank: int
    matrix: np.ndarray

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of R(C)."""
        return self.Q[:, len(self.w) - self.rank:]

    @property
    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of N(C)."""
        return self.Q[:, : len(self.w) - self.rank]

    @property
    def range_values(self) -> np.ndarray:
        """The nonzero eigenvalues, in the order of ``range_basis``."""
        return self.w[len(self.w) - self.rank:]

    def sqrt(self) -> np.ndarray:
        """C^{1/2}."""
        q_r = self.range_basis
        return (q_r * np.sqrt(self.range_values)) @ q_r.conj().T

    def pinv_sqrt(self) -> np.ndarray:
        """(C^{1/2})^+."""
        q_r = self.range_basis
        return (q_r / np.sqrt(self.range_values)) @ q_r.conj().T

    def pinv(self) -> np.ndarray:
        """C^+."""
        q_r = self.range_basis
        return (q_r / self.range_values) @ q_r.conj().T

    def null_proj(self) -> np.ndarray:
        """Projector onto N(C)."""
        q_n = self.null_basis
        return q_n @ q_n.conj().T


def psd_eigh(c) -> PsdEig:
    """Spectral decomposition of a Hermitian positive semidefinite matrix.

    Eigenvalues below -HERMITIAN_REL max|w| are rejected, at any scale;
    those at or below the rank cutoff RANK_REL * n * max|w| are set to 0.
    A ``PsdEig`` is returned as is.
    """
    if isinstance(c, PsdEig):
        return c
    c = hermitian_checked(c)
    q, w = _eigh_checked(c)
    scale = float(np.max(np.abs(w)))
    if w[0] < -HERMITIAN_REL * scale:
        raise PreconditionError(
            f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
        )
    w = np.where(w > RANK_REL * len(w) * scale, w, 0.0)
    return PsdEig(q, w, int(np.count_nonzero(w)), c)


def tridiagonalize(h) -> tuple:
    """Householder reduction H = Q T Q* of a Hermitian matrix to tridiagonal T.

    Returns (Q, diag, off): T's real diagonal and its subdiagonal T[k+1, k],
    whose conjugate is the superdiagonal.

    Reflection k, I - tau v v*, maps the part x of column k below the
    diagonal onto its first entry; v = x + e^{i arg x_0} ||x|| e_1 adds to
    x_0 rather than cancel it, and a column already zero below its
    subdiagonal takes no reflection.  d - 2 reflections in O(d^3) flops
    (Golub & Van Loan, *Matrix Computations*, sec. 8.3.1), with no
    ``numpy.linalg`` factorization.  The input is checked by
    ``hermitian_checked`` and reduced symmetrized and scaled by a power of
    two, so no norm overflows; T is scaled back exactly.
    """
    m = hermitian_checked(h)
    scaled, e = _pow2_scaled(m)
    a = 0.5 * (scaled + scaled.conj().T)
    d = a.shape[0]
    q = np.eye(d, dtype=complex)
    for k in range(d - 2):
        x = a[k + 1:, k]
        tail = np.vdot(x[1:], x[1:]).real
        if tail == 0.0:
            continue
        x0 = abs(x[0])
        norm = math.sqrt(x0 * x0 + tail)
        lead = (x[0] / x0 if x0 else 1.0) * norm
        v = x.copy()
        v[0] += lead
        tau = 1.0 / (norm * (norm + x0))      # 2 / ||v||^2
        # A22 <- H A22 H as the rank-2 update A22 - v w* - w v*; only the
        # band of A is read afterwards, so column k keeps just T[k+1, k]
        a22 = a[k + 1:, k + 1:]
        p = tau * (a22 @ v)
        w = p - (0.5 * tau * np.vdot(v, p).real) * v
        a22 -= np.outer(v, w.conj())
        a22 -= np.outer(w, v.conj())
        x[0] = -lead
        qk = q[:, k + 1:]
        qk -= np.outer(qk @ (tau * v), v.conj())
    unit = math.ldexp(1.0, e)
    return q, a.diagonal().real * unit, a.diagonal(-1) * unit

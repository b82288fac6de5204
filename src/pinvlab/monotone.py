"""Operator-monotone functional calculus with certified error control.

A function in the Pick class is carried as its representation data
(alpha, beta, nu):  f(lambda) = alpha + beta*lambda
- integral over (0, inf) of (1/(t+lambda) - t/(t^2+1)) d nu(t).
The measure nu is either a finite list of atoms or the built-in density
sqrt(t)/pi (which represents f = sqrt).  As beta >= 0 and nu >= 0,
f'(lambda) = beta + ∫(t+lambda)^{-2} dnu >= 0, so data that pass the
constructors' checks are monotone and f is never sampled to confirm it.
Matrix evaluation is provided through two independent routes -- spectral
calculus and resolvent quadrature -- kept separate so each can serve as
the other's oracle.  For the sqrt density the spectral route and f(0)
read f off the closed form ∫(1/(t+lambda) - t/(t^2+1)) dnu = 1/sqrt(2) -
sqrt(lambda), and take no quadrature node; the integral route,
``scalar_eval``, the Taylor terms and the bound and Riemann integrals
take the quadrature, so the spectral route is an oracle that shares no
code with it.  Atomic measures take exact sums on every route.
Taylor terms of the matrix map C -> f(C), their gauge-norm bounds and the
bound on the tail after each order, a first-order perturbation bound and
dyadic Riemann operator sums with a proved O(2^-p) gap complete the module.
The Taylor terms have two routes as well, each giving every term up to an
order from one check of Delta and one eigh of C: ``taylor_terms``
integrates the resolvent products of any f, and for f = sqrt
``sqrt_taylor_terms`` reads them off the coefficient recursion of
Y^2 = C + Delta, with no quadrature; ``pinvlab taylor --function sqrt``
runs the recursion, and ``taylor_terms`` is its oracle.

Each positive matrix is factorized once, by ``matcore.psd_eigh``, and the
Taylor, perturbation and Riemann integrands run in its eigenbasis, where
the resolvent (tI+C)^{-1} is diagonal.  Only ``matrix_eval_integral``, the
spectral route's oracle, solves with matrix resolvents, and it does not
diagonalize: it reduces C once to Hermitian tridiagonal form T
(``matcore.tridiagonalize``) and solves each shifted system through the
LDL* factorization of tI + T, in O(d^2) per node.

Integrals against the sqrt density use one nested trapezoid rule in a
double-exponential variable x: t = exp(pi/2 sinh x) on (0, inf), and
tanh-sinh in s = sqrt(t) on [0, t_max).  Halving the step adds only the
new midpoints to a running sum, so a refinement reuses every node already
evaluated, and the integrand sees a fixed chunk of nodes at a time, so a
matrix integrand holds O(chunk d^2) memory at any depth.  The rule stops
when two levels agree to ``QUAD_TOL`` times ∫‖fn‖dν, and raises
ConvergenceError rather than return a value the fixed x-window truncates:
an end term above that allowance is such a value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, OutsideNeighborhoodError, PreconditionError
from .matcore import (
    CANCELLATION_REL,
    QUAD_TOL,
    REPRESENTATION_ABS,
    RESIDUAL_ABS,
    RIEMANN_MAX_CELLS,
    RIEMANN_TAIL_REL,
    GaugeNorm,
    OP_NORM,
    PsdEig,
    gauge_norm,
    hermitian_checked,
    psd_eigh,
    same_shape,
    tridiagonalize,
)
from .pinv import BoundReport


@dataclass(frozen=True)
class MonotoneFunction:
    """Representation data (alpha, beta, nu) of an operator monotone function.

    ``atoms`` is a tuple of (t, w) point masses with t > 0, w >= 0, or
    None when ``density`` names a built-in density ("sqrt" only).
    """

    alpha: float
    beta: float
    atoms: tuple | None = None
    density: str | None = None

    @cached_property
    def f0(self) -> float:
        """f(0), evaluated on first read and kept: by the closed form for
        the sqrt density (exactly 0 for ``make_sqrt()``), from the atoms'
        exact sum otherwise."""
        if self.density == "sqrt":
            return float(_sqrt_closed_form(self, 0.0))
        return float(_evaluate(self, np.asarray(0.0)))


# ∫(1/t - t/(t^2+1)) dnu for the sqrt density: alpha of make_sqrt, so f(0) = 0
_SQRT_ALPHA = 1.0 / math.sqrt(2.0)


def _sqrt_closed_form(f: MonotoneFunction, lam):
    """f(lambda) = alpha + beta lam - (1/sqrt(2) - sqrt(lambda)) for the sqrt
    density at lambda >= 0, with no quadrature.  The constants are summed
    first, so no rounding of 1/sqrt(2) - sqrt(lambda) reaches a small root."""
    return (f.alpha - _SQRT_ALPHA) + f.beta * lam + np.sqrt(lam)


# Windows of the nested trapezoid rule in the double-exponential variable x,
# wide enough that every integrand of this module passes the end-term check
# at lambda = 0 and for spectra in [1e-12, 1e12].  At x = 5 the half-line
# node is t = 4e50 (t^2 still fits a double), at x = -4.5 it is t = 2e-31.
_HALF_LINE_WINDOW = (-4.5, 5.0)     # t = exp(pi/2 sinh x) on (0, inf)
_TRUNCATED_WINDOW = (-3.5, 3.5)     # tanh-sinh in s = sqrt(t) on [0, t_max)
_CHUNK = 64                         # nodes per call of the integrand
_FIRST_INTERVALS = 32               # intervals of the window at the first level;
                                    # their nodes must fit one chunk
_MAX_INTERVALS = 8192               # no halving past this many intervals
_RIEMANN_CHUNK = 2**13              # cells per block of a dyadic Riemann sum


def _half_line_nodes(x):
    """t = exp(pi/2 sinh x) and dnu/dx = t^{3/2} cosh(x)/2 for the sqrt density."""
    t = np.exp(0.5 * math.pi * np.sinh(x))
    return t, 0.5 * t**1.5 * np.cosh(x)


def _truncated_nodes(x, s_max: float):
    """t = s^2 and dnu/dx for s = s_max (1 + tanh u)/2, u = pi/2 sinh x.

    dnu = (2 s^2/pi) ds; (1 + tanh u)/2 and its derivative are written in
    e = exp(-2|u|), which neither overflows nor cancels at either end.
    """
    u = 0.5 * math.pi * np.sinh(x)
    e = np.exp(-2.0 * np.abs(u))
    s = s_max * np.where(u >= 0, 1.0, e) / (1.0 + e)
    ds = s_max * math.pi * np.cosh(x) * e / (1.0 + e) ** 2
    return s * s, (2.0 / math.pi) * s * s * ds


def _sqrt_integral(fn, t_max: float | None = None):
    """∫ fn dν for the sqrt density by the nested double-exponential rule.

    ``fn`` maps an array of t values (M,) to stacked values (M, ...);
    the result is the weight-contracted sum.  On either window the
    integrand decays double exponentially in x, and the trapezoid rule
    converges at that rate.  The first level splits the window
    into ``_FIRST_INTERVALS`` and evaluates its nodes, the two ends
    included, in one call of ``fn``, which gives the end term as well;
    each halving of the step evaluates only the new midpoints, which
    never include an end, ``_CHUNK`` nodes per call, and adds them to
    one running sum.  The allowance is ``QUAD_TOL`` times the mass
    ∫‖fn‖dν, summed alongside: relative for a one-signed integrand, and
    the rounding scale of the sum when it cancels.  ConvergenceError,
    with the offending size as ``residual``, when successive levels still
    differ at ``_MAX_INTERVALS``, or when an end term of the window
    exceeds the allowance (the window would truncate).
    """
    if t_max is None:
        lo, hi = _HALF_LINE_WINDOW
        grid = _half_line_nodes
    else:
        lo, hi = _TRUNCATED_WINDOW
        s_max = math.sqrt(t_max)

        def grid(x):
            return _truncated_nodes(x, s_max)

    def level(x, c):
        """Σ c w fn(t) and Σ c w ‖fn(t)‖ over the nodes x with trapezoid
        factors c, _CHUNK at a time, and the w ‖fn(t)‖ of the last chunk."""
        total, mass = 0.0, 0.0
        for k in range(0, len(x), _CHUNK):
            t, w = grid(x[k:k + _CHUNK])
            vals = fn(t)
            norms = w * np.linalg.norm(vals.reshape(len(t), -1), axis=1)
            total = total + np.tensordot(c[k:k + _CHUNK] * w, vals, axes=(0, 0))
            mass += float(c[k:k + _CHUNK] @ norms)
        return total, mass, norms

    n = _FIRST_INTERVALS
    h = (hi - lo) / n
    ends = np.ones(n + 1)
    ends[[0, -1]] = 0.5
    acc, mass, norms = level(np.linspace(lo, hi, n + 1), ends)
    end = max(norms[0], norms[-1])      # the first level is one chunk
    prev = h * acc
    while 2 * n <= _MAX_INTERVALS:
        n *= 2
        h *= 0.5
        new, new_mass, _ = level(lo + h * np.arange(1, n, 2), np.ones(n // 2))
        acc = acc + new
        mass += new_mass
        cur = h * acc
        allowed = QUAD_TOL * h * mass
        diff = float(np.linalg.norm(np.atleast_1d(cur - prev)))
        if diff <= allowed:
            if h * end > allowed:
                raise ConvergenceError(
                    f"quadrature end term {h * end:.3e} exceeds {allowed:.3e}: "
                    "the integrand is not negligible at the window's ends",
                    residual=h * end,
                )
            return cur
        prev = cur
    raise ConvergenceError(
        f"quadrature failed to converge within {_MAX_INTERVALS} intervals",
        residual=diff,
    )


def measure_integral(f: MonotoneFunction, fn, t_max: float | None = None):
    """∫ fn(t) dν(t) over (0, inf), or over [0, t_max) when given.

    Exact weighted sum for atomic measures, the nested double-exponential
    rule of ``_sqrt_integral`` for the built-in density.
    """
    if f.atoms is not None:
        # with no atom in range the contraction gives zeros of fn's shape
        ts = np.array([t for t, _ in f.atoms if t_max is None or t < t_max], dtype=float)
        ws = np.array([w for t, w in f.atoms if t_max is None or t < t_max], dtype=float)
        return np.tensordot(ws, fn(ts), axes=(0, 0))
    if f.density != "sqrt":
        raise PreconditionError(f"unknown density {f.density!r}")
    return _sqrt_integral(fn, t_max)


def measure_mass(f: MonotoneFunction, a, b):
    """nu([a, b)) for scalar or array ends: a float, or one mass per pair.

    Closed form for the sqrt density; for atoms a difference of the
    cumulative weights over the atoms sorted by position.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.all(a >= 0) and np.all(b >= a)):     # NaN fails too
        raise PreconditionError("need 0 <= a <= b")
    if f.atoms is not None:
        atoms = np.array(sorted(f.atoms), dtype=float).reshape(-1, 2)
        cum = np.concatenate(([0.0], np.cumsum(atoms[:, 1])))
        mass = cum[np.searchsorted(atoms[:, 0], b)] - cum[np.searchsorted(atoms[:, 0], a)]
    elif f.density == "sqrt":
        mass = (2.0 / (3.0 * math.pi)) * (b**1.5 - a**1.5)
    else:
        raise PreconditionError(f"unknown density {f.density!r}")
    return float(mass) if mass.ndim == 0 else mass


def make_sqrt() -> MonotoneFunction:
    """The square root: alpha = 1/sqrt(2), beta = 0, density sqrt(t)/pi."""
    return MonotoneFunction(alpha=_SQRT_ALPHA, beta=0.0, density="sqrt")


def make_atomic(alpha: float, beta: float, atoms) -> MonotoneFunction:
    """Pick function with finite alpha, finite beta >= 0 and a finite atomic measure
    sum(w_i * delta_{t_i}): atoms lists (t, w) pairs of reals, finite t > 0, w >= 0,
    which make f monotone."""
    try:
        alpha, beta = _real(alpha), _real(beta)
    except (TypeError, OverflowError) as exc:
        raise PreconditionError(f"alpha and beta must be real numbers: {exc}") from exc
    if not (math.isfinite(alpha) and 0 <= beta < math.inf):
        raise PreconditionError("need finite alpha and finite beta >= 0")
    if not isinstance(atoms, (list, tuple)):
        raise PreconditionError("atoms must be a list of (t, w) pairs")
    try:
        clean = [(_real(t), _real(w)) for t, w in atoms]
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"atoms must be (t, w) pairs of numbers: {exc}") from exc
    if not all(0 < t < math.inf and 0 <= w < math.inf for t, w in clean):
        raise PreconditionError("atoms need finite t > 0 and w >= 0")
    return MonotoneFunction(alpha=alpha, beta=beta, atoms=tuple(clean))


def _real(x) -> float:
    """x as a float if it is a real number, not a bool or a string."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{x!r} is not a real number")
    return float(x)


def monotone_to_json(f: MonotoneFunction) -> dict:
    if f.atoms is not None:
        return {"alpha": f.alpha, "beta": f.beta,
                "atoms": [[t, w] for t, w in f.atoms]}
    return {"alpha": f.alpha, "beta": f.beta, "density": f.density}


def monotone_from_json(obj) -> MonotoneFunction:
    try:
        alpha, beta = _real(obj["alpha"]), _real(obj["beta"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise PreconditionError(f"malformed function JSON: {exc}") from exc
    if "atoms" in obj:
        return make_atomic(alpha, beta, obj["atoms"])
    if obj.get("density") == "sqrt":
        f = make_sqrt()
        if not (abs(alpha - f.alpha) <= REPRESENTATION_ABS
                and abs(beta - f.beta) <= REPRESENTATION_ABS):
            raise PreconditionError(
                "the sqrt density requires alpha = 1/sqrt(2), beta = 0"
            )
        return f
    raise PreconditionError("function JSON needs 'atoms' or density 'sqrt'")


# ---------------------------------------------------------------------------
# Evaluation.


def scalar_eval(f: MonotoneFunction, lam):
    """f(lambda) for finite lambda >= 0 from the representation data.

    A float for a scalar ``lam``; for an array, one quadrature serves every
    entry.  Entries equal to 0 take the kept f(0), ``f.f0``.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 0) & (lam < math.inf)):       # NaN fails too
        raise PreconditionError("scalar argument must be finite and nonnegative")
    if lam.ndim == 0 and lam == 0.0:
        return f.f0
    vals = _evaluate(f, lam)
    if lam.ndim == 0:
        return float(vals)
    return np.where(lam == 0.0, f.f0, vals)


def _evaluate(f: MonotoneFunction, lam: np.ndarray):
    """alpha + beta lam - ∫(1/(t+lam) - t/(t^2+1)) dnu at each lam >= 0,
    refused where the difference is below the rounding of its terms."""

    def fn(t):
        t = t.reshape(t.shape + (1,) * lam.ndim)
        # combined form of 1/(t+lam) - t/(t^2+1): stable for large t
        return (1.0 - lam * t) / ((t + lam) * (t * t + 1.0))

    integral = measure_integral(f, fn)
    vals = f.alpha + f.beta * lam - integral
    pos = lam > 0
    if np.any(pos):
        # the value is a difference of O(alpha + beta lambda + |∫|) terms:
        # below their rounding times 1/CANCELLATION_REL it is noise
        floor = np.finfo(float).eps * np.max(
            (abs(f.alpha) + f.beta * lam + np.abs(integral))[pos])
        if floor > CANCELLATION_REL * np.max(np.abs(vals[pos])):
            raise ConvergenceError(
                f"f(lambda) is below the rounding {floor:.3e} of "
                "alpha + beta lambda - ∫ dnu: too small to resolve",
                residual=floor,
            )
    return vals


def _pd_eigh(c) -> PsdEig:
    """psd_eigh of a matrix that must be positive definite."""
    eig = psd_eigh(c)
    if eig.rank < len(eig.w):
        raise PreconditionError("matrix must be positive definite")
    return eig


def matrix_eval_spectral(f: MonotoneFunction, c) -> np.ndarray:
    """f(C) through the spectral theorem: scalar f applied to eigenvalues,
    those at or below the rank cutoff taken as 0 (as in the integral route).
    For the sqrt density f is the closed form alpha + beta lambda -
    (1/sqrt(2) - sqrt(lambda)), which evaluates no quadrature node; atomic
    measures go through ``scalar_eval``'s exact sums.  C is a matrix or
    its psd_eigh."""
    eig = psd_eigh(c)
    if f.density == "sqrt":
        vals = _sqrt_closed_form(f, eig.w)
    else:
        vals = scalar_eval(f, eig.w)
    out = (eig.Q * vals) @ eig.Q.conj().T
    return 0.5 * (out + out.conj().T)


def matrix_eval_integral(f: MonotoneFunction, c) -> np.ndarray:
    """f(C) through resolvent quadrature, independent of the spectral route.

    alpha I + beta C - ∫((tI+C)^{-1} - t/(t^2+1) I) dν(t), taken by the
    quadrature for the sqrt density too, where the spectral route's closed
    form is its oracle.  C is reduced once to Hermitian tridiagonal form,
    C = Q T Q* (``tridiagonalize``), and the integral is taken in T's
    basis and conjugated back once.  At each node (tI + T) X = I - tT is
    solved through the LDL* of tI + T, which needs no pivoting as tI + T
    is positive definite, in O(d^2), for all nodes of a chunk at once.
    The rule compares Frobenius norms, which Q leaves unchanged, so it
    takes the nodes it would take in C's basis.  A singular C is
    integrated with its null block set to w_max I, which makes it positive
    definite as sC gives s times it, and the value's null block is then
    replaced by f(0) I; the eigh, the one factorization, gives only that
    null projector and the rank.  C is a matrix or its psd_eigh.
    """
    eig = psd_eigh(c)
    c = eig.matrix
    d = c.shape[0]
    if eig.rank == 0:
        return f.f0 * np.eye(d, dtype=complex)
    ident = np.eye(d, dtype=complex)
    if eig.rank < d:
        null_proj = eig.null_proj()
        c = c + eig.w[-1] * null_proj
    q, diag, off = tridiagonalize(c)
    minus_t = -(np.diag(diag.astype(complex)) + np.diag(off, -1) + np.diag(off.conj(), 1))
    off_sq = (off.conj() * off).real.tolist()
    rows = np.arange(d)

    def fn(t):
        # (tI+T)^{-1} - t/(t^2+1) I rewritten as (tI+T)^{-1}(I - tT)/(t^2+1)
        # to avoid the large-t cancellation of the two O(1/t) pieces.
        # tI + T = L D L*, D the pivots and L unit lower bidiagonal with
        # multipliers off/D; the solve runs row by row over a (d, M, d)
        # stack, and the division by t^2+1 rides on the one by D
        shifted = t + diag[:, None]
        piv = [shifted[0]]
        for k in range(1, d):
            piv.append(shifted[k] - off_sq[k - 1] / piv[-1])
        piv = np.array(piv)
        low = (off[:, None] / piv[:-1])[:, :, None]
        x = minus_t[:, None, :] * t[:, None]
        x[rows, :, rows] += 1.0
        for k in range(1, d):
            x[k] -= low[k - 1] * x[k - 1]
        x /= (piv * (t * t + 1.0))[:, :, None]
        low = low.conj()
        for k in range(d - 2, -1, -1):
            x[k] -= low[k] * x[k + 1]
        return np.ascontiguousarray(x.transpose(1, 0, 2))

    out = q @ (f.alpha * ident - measure_integral(f, fn)) @ q.conj().T + f.beta * c
    if eig.rank < d:
        keep = ident - null_proj
        out = keep @ out @ keep + f.f0 * null_proj
    return 0.5 * (out + out.conj().T)


# ---------------------------------------------------------------------------
# Taylor terms of C -> f(C) and their certified bounds.


def _check_order(n):
    """PreconditionError unless the term order n is an integer >= 1, not a bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise PreconditionError(f"term order must be an integer >= 1, got {n!r}")


def taylor_terms(f: MonotoneFunction, c, delta, n: int) -> list:
    """Terms of orders 1..n of the expansion of f(C + Delta) around
    positive definite C, by resolvent quadrature.

    f_1(D) = beta D + ∫ R D R dν and, for m >= 2,
    f_m(D) = (-1)^{m+1} ∫ (R D)^m R dν with R = (tI+C)^{-1}.  Delta is
    checked, C factorized and X = Q* Delta Q formed once for every order;
    each order takes its own quadrature of (R X)^m R in the eigenbasis Q
    of C, where R is diagonal, conjugated back once.  C is a matrix or its
    psd_eigh.
    """
    _check_order(n)
    same_shape(c, delta)
    delta = hermitian_checked(delta, "Delta")
    eig = _pd_eigh(c)
    q, w = eig.Q, eig.w
    x = q.conj().T @ delta @ q

    def term(m):
        def fn(t):
            r = 1.0 / (t[:, None] + w)
            prod = r[:, :, None] * x
            acc = prod
            for _ in range(m - 1):
                acc = acc @ prod
            return acc * r[:, None, :]

        out = (1.0 if m % 2 == 1 else -1.0) * (q @ measure_integral(f, fn) @ q.conj().T)
        if m == 1:
            out = f.beta * delta + out
        return 0.5 * (out + out.conj().T)

    return [term(m) for m in range(1, n + 1)]


def sqrt_taylor_terms(c, delta, n: int) -> list:
    """Terms of orders 1..n of the expansion of sqrt(C + Delta) around
    positive definite C, by the coefficient recursion; no quadrature.

    Matching powers of t in Y(t)^2 = C + t Delta for Y(t) = Σ R_l t^l,
    R_0 = S = sqrt(C), gives the Sylvester equations
    S R_l + R_l S = δ_{l1} Delta - Σ_{m=1}^{l-1} R_m R_{l-m}.  In the
    eigenbasis Q of C, S = diag(s) with s = sqrt(w), so each solve is an
    entrywise division by s_i + s_j of the right-hand side, which starts
    from X = Q* Delta Q (the Daleckii-Krein form at l = 1).  Each R_l is
    conjugated back once.  The integral route ``taylor_terms(make_sqrt(),
    ...)`` is the oracle of this one.  C is a matrix or its psd_eigh.
    """
    _check_order(n)
    same_shape(c, delta)
    delta = hermitian_checked(delta, "Delta")
    eig = _pd_eigh(c)
    q, s = eig.Q, np.sqrt(eig.w)
    denom = s[:, None] + s
    coeffs = [q.conj().T @ delta @ q / denom]       # coeffs[k] is R_{k+1}
    for k in range(1, n):
        coeffs.append(-sum(coeffs[m] @ coeffs[k - 1 - m] for m in range(k)) / denom)
    terms = []
    for r in coeffs:
        out = q @ r @ q.conj().T
        terms.append(0.5 * (out + out.conj().T))
    return terms


def _series_radius(c, delta, g: GaugeNorm) -> tuple:
    """(gamma_C, ||Delta||_g) for Hermitian Delta (PreconditionError otherwise);
    OutsideNeighborhoodError unless ||Delta||_g < gamma_C, the series radius."""
    same_shape(c, delta)
    delta = hermitian_checked(delta, "Delta")
    gamma = float(_pd_eigh(c).w[0])
    dist = gauge_norm(delta, g)
    if dist >= gamma:
        raise OutsideNeighborhoodError(
            f"||Delta|| = {dist:.3e} >= gamma(C) = {gamma:.3e}"
        )
    return gamma, dist


def taylor_remainder_bound(f: MonotoneFunction, c, delta, n: int,
                           g: GaugeNorm = OP_NORM) -> float:
    """Gauge-norm bound on the n-th Taylor term.

    (beta + ∫(t+gamma_C)^{-2} dν) ||Delta|| for n = 1 and
    ∫(t+gamma_C)^{-(n+1)} dν ||Delta||^n for n >= 2; requires
    ||Delta||_g < gamma_C so the series radius is respected.  C is a
    matrix or its psd_eigh.
    """
    _check_order(n)
    gamma, dist = _series_radius(c, delta, g)
    coeff = float(measure_integral(f, lambda t: (t + gamma) ** (-(n + 1))))
    if n == 1:
        return (f.beta + coeff) * dist
    return coeff * dist**n


def taylor_tail_bounds(f: MonotoneFunction, c, delta, m_max: int,
                       g: GaugeNorm = OP_NORM) -> list:
    """Gauge-norm bounds on the remainder of f(C + Delta) after the terms of
    orders 1..m, for m = 1..m_max.

    Summing the term bounds ∫(t+gamma_C)^{-(n+1)} dν ||Delta||^n over
    n > m gives ∫(t+gamma_C)^{-2} dν q^m ||Delta|| / (1 - q) with
    q = ||Delta||_g / gamma_C < 1; OutsideNeighborhoodError at q >= 1.
    ||Delta||_g is taken once for every order.  C is a matrix or its
    psd_eigh.
    """
    _check_order(m_max)
    gamma, dist = _series_radius(c, delta, g)
    coeff = float(measure_integral(f, lambda t: (t + gamma) ** -2.0))
    q = dist / gamma
    return [coeff * q**m * dist / (1.0 - q) for m in range(1, m_max + 1)]


def perturbation_bound(f: MonotoneFunction, c, d,
                       g: GaugeNorm = OP_NORM) -> BoundReport:
    """Gauge bound ||f(D)-f(C)|| <= ||D-C|| (beta + ∫ dν/((t+γ_C)(t+γ_D))).

    C and D are matrices or their psd_eighs.
    """
    same_shape(c, d)
    ec, ed = _pd_eigh(c), _pd_eigh(d)
    gamma_c, gamma_d = float(ec.w[0]), float(ed.w[0])
    dist = gauge_norm(ed.matrix - ec.matrix, g)
    coeff = float(measure_integral(
        f, lambda t: 1.0 / ((t + gamma_c) * (t + gamma_d))))
    bound = dist * (f.beta + coeff)
    actual = gauge_norm(matrix_eval_spectral(f, ed) - matrix_eval_spectral(f, ec), g)
    return BoundReport(True, bound, actual)


# ---------------------------------------------------------------------------
# Dyadic Riemann operator sums.


@dataclass
class RiemannSumReport:
    """Dyadic Riemann sum of ∫ h dν against its quadrature reference.

    ``bound`` = 2^-p Σ_m r(t_{m-1}) ν([t_{m-1}, t_m)), r(t) = ||D-C||_g
    ((t+γ_C)(t+γ_D))^{-1} ((t+γ_C)^{-1} + (t+γ_D)^{-1}): as h' = -(tI+C)^{-1} h
    - h (tI+D)^{-1}, ||XYZ||_g <= ||X|| ||Y||_g ||Z|| bounds ||h'(t)||_g by
    r(t), which decreases in t, so gap_gauge <= bound (1 + 1e-6) on [0, t_max).
    """

    p: int
    t_max: float
    value: np.ndarray
    reference: np.ndarray
    gap_gauge: float
    bound: float


def _dyadic_cells(p, t_max: float) -> tuple:
    """(2^-p, the count of such cells in [0, t_max)); PreconditionError unless
    p >= 0, 0 < t_max < inf, 2^-p > 0 and the count <= ``RIEMANN_MAX_CELLS``."""
    width = 2.0 ** -min(p, 1075) if p >= 0 else math.nan    # 0 from p = 1075 on
    if not (0 < t_max < math.inf and width > 0 and t_max / width <= RIEMANN_MAX_CELLS):
        raise PreconditionError(f"p = {p}, t_max = {t_max}: need p >= 0, finite "
                                f"t_max > 0 and at most {RIEMANN_MAX_CELLS} cells")
    return width, math.ceil(t_max / width)


def riemann_sum(f: MonotoneFunction, c, d, p: int, t_max: float,
                g: GaugeNorm = OP_NORM) -> RiemannSumReport:
    """Dyadic Riemann sum R_p of ∫ h dν, h(t) = (tI+C)^{-1}(D-C)(tI+D)^{-1}.

    Cells [(m-1)/2^p, m/2^p) tile [0, t_max); each adds its exact mass times
    h at its right end to the sum, and times r, which bounds ||h'||_g and
    decreases in t, at its left end to the bound 2^-p Σ_m r(t_{m-1}) ν(cell_m).
    Sum and reference run on the Daleckii-Krein form h(t) = Q_C (K(t) ∘ X) Q_D*,
    X = Q_C*(D-C)Q_D, K_ij(t) = 1/((t+λ_i)(t+μ_j)) over the ascending eigenpairs
    of C and D; the tail ||D-C||_g ∫_{t_max}^inf K_00 dν, read off the
    reference, must stay below the relative ``RIEMANN_TAIL_REL``.  Cells go
    ``_RIEMANN_CHUNK`` at a time, in O(chunk d) memory.  ``_dyadic_cells``
    refuses a depth before C and D, matrices or their psd_eighs, are factorized.
    """
    width, n_cells = _dyadic_cells(p, t_max)
    same_shape(c, d)
    ec, ed = _pd_eigh(c), _pd_eigh(d)
    qc, wc, qd, wd = ec.Q, ec.w, ed.Q, ed.w
    diff = ed.matrix - ec.matrix
    dist = gauge_norm(diff, g)
    x = qc.conj().T @ diff @ qd

    def k00(t):
        return 1.0 / ((t + wc[0]) * (t + wd[0]))

    k_ref = measure_integral(
        f, lambda t: 1.0 / ((t[:, None, None] + wc[:, None])
                            * (t[:, None, None] + wd)), t_max=t_max)
    # wc, wd ascend, so K_00 = k00: its tail is its half-line integral less k_ref[0, 0]
    tail = dist * (float(measure_integral(f, k00)) - float(k_ref[0, 0]))
    if tail > RIEMANN_TAIL_REL * max(dist, RESIDUAL_ABS):
        raise PreconditionError(
            f"truncation tail {tail:.3e} beyond t_max = {t_max} exceeds "
            f"the relative allowance {RIEMANN_TAIL_REL}")

    k_sum = np.zeros((len(wc), len(wd)))
    r_cells = 0.0
    for start in range(0, n_cells, _RIEMANN_CHUNK):
        lefts = width * np.arange(start, min(start + _RIEMANN_CHUNK, n_cells))
        masses = measure_mass(f, lefts, np.minimum(lefts + width, t_max))
        samples = (lefts + width)[:, None]
        # Σ m K(t_m) over the block as one product of the sampled diagonal
        # resolvents of C and D, formed in place and freed before the next
        res_c, res_d = samples + wc, samples + wd
        np.divide(masses[:, None], res_c, out=res_c)
        np.divide(1.0, res_d, out=res_d)
        k_sum += res_c.T @ res_d
        del res_c, res_d
        r = dist * k00(lefts) * (1.0 / (lefts + wc[0]) + 1.0 / (lefts + wd[0]))
        r_cells += float(np.dot(r, masses))
    value = qc @ (k_sum * x) @ qd.conj().T
    reference = qc @ (k_ref * x) @ qd.conj().T
    gap = gauge_norm(value - reference, g)
    return RiemannSumReport(p, t_max, value, reference, gap, width * r_cells)


def riemann_decay_slope(f: MonotoneFunction, c, d, ps, t_max: float,
                        g: GaugeNorm = OP_NORM) -> float:
    """Least-squares slope of log2(gap) against p; about -1 for h Lipschitz.
    PreconditionError before C and D (matrices or psd_eighs) are factorized,
    once for every p, unless ``ps`` holds two distinct depths riemann_sum takes."""
    ps = list(ps)
    if len(set(ps)) < 2:
        raise PreconditionError(f"a slope needs two distinct depths, got {ps!r}")
    for p in ps:
        _dyadic_cells(p, t_max)
    ec, ed = _pd_eigh(c), _pd_eigh(d)
    gaps = [riemann_sum(f, ec, ed, p, t_max, g).gap_gauge for p in ps]
    if any(gap <= 0 for gap in gaps):
        raise PreconditionError("zero gap; slope is undefined")
    return float(np.polyfit(ps, np.log2(gaps), 1)[0])


# ---------------------------------------------------------------------------
# Continuity of the functional calculus along a stratum.


@dataclass
class StratumContinuityRow:
    n: int
    index: int
    input_gap: float
    value_gap: float


@dataclass
class StratumContinuityReport:
    rows: list

    @property
    def final_gap(self) -> float:
        return self.rows[-1].value_gap

    @property
    def indices_zero(self) -> bool:
        return all(r.index == 0 for r in self.rows)


def continuity_in_stratum(f: MonotoneFunction, c, seq,
                          g: GaugeNorm = OP_NORM) -> StratumContinuityReport:
    """Track ||f(D_n) - f(C)||_g along a PSD sequence, with stratum indices.

    Diagnostic: the report records, per term, the stratum index of D_n
    relative to C and the input/output gaps.  Convergence of the value
    gap alongside the input gap is exactly the index-zero phenomenon;
    a tail that jumps stratum shows a value gap of larger order.  Each
    matrix takes one psd_eigh, which gives its f and its rank: the index
    is rank(C) - rank(D_n).  C and the terms are matrices or their psd_eighs;
    an empty sequence is refused before C is factorized.
    """
    seq = list(seq)
    if not seq:
        raise PreconditionError("sequence must be nonempty")
    eig_c = psd_eigh(c)
    c = eig_c.matrix
    fc = matrix_eval_spectral(f, eig_c)
    rows = []
    for n, dn in enumerate(seq):
        same_shape(c, dn)
        eig_d = psd_eigh(dn)
        fd = matrix_eval_spectral(f, eig_d)
        rows.append(StratumContinuityRow(n, eig_c.rank - eig_d.rank,
                                         gauge_norm(eig_d.matrix - c, g),
                                         gauge_norm(fd - fc, g)))
    return StratumContinuityReport(rows)

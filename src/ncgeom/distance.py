"""Connes' distance function on finite sets from weighted digraph triples.

The distance between point states p and q is the supremum of f(q) - f(p)
over functions whose commutator with the (doubled) operator has norm at
most one.  For real D the doubled and undoubled norms agree for every f,
since [D^T, f] = -[D, f]^T.  The solver takes f real (the oracle's complex
mode cross-checks that reduction), so with f(p) pinned to zero it is the
semidefinite program

    maximize f(q)  s.t.  M(f) = [[I, C(f)], [C(f)^T, I]] = I + sum_k f_k B_k >= 0,

C(f) = D o (f_j - f_i).  Its dual is min tr(X) s.t. tr(X B_k) = -delta_kq for
k != p, X >= 0, and f(q) = tr(X) - tr(X M(f)) <= tr(X) by weak duality.
`distance` puts p first, and the iteration runs on the n - 1 free values
f_k: only `_lmi`, `_lmi_adjoint` and `_schur` know which point is pinned.
The distance scales as 1/D, so `distance` solves on D 2^-s, with s the
binary exponent of max|D|, and scales f and the bound back by 2^-s.  That
is exact: no operator overflows, and D and 2^k D give the same iterates.
It solves both at once from X = M(0) = I by an infeasible-start
primal-dual method: the HKM direction (Helmberg, Rendl, Vanderbei &
Wolkowicz, SIAM J. Optim. 6, 1996) with Mehrotra's predictor-corrector
(Todd, Toh & Tutuncu, SIAM J. Optim. 8, 1998).  Each B_k has rank at most
four, which gives the Schur matrix tr(X B_k M^-1 B_l) in O(n^3).  A common
step, a fixed fraction of the way to the boundary of the cone for X and
M(f), keeps both positive definite, so every f(q) is a lower bound.

The dual certificate is the iterate X repaired: the least-squares
correction sum_k c_k B_k makes tr(X B_k) = -delta_kq hold to rounding (the
Gram matrix tr(B_k B_l) is twice the Laplacian of the weights
D_kl^2 + D_lk^2, positive definite on the free k of a connected D).  The B_k
are traceless, so the repair keeps tr(X); a negative lowest eigenvalue -e of
the repaired X costs 2n e on the bound.  A solve stops once that bound and
the value it returns, f(q) of the floored f, agree to the relative gap
DEFAULT_TOL, and raises NumericError rather than return an uncertified
value, as it does for a floored f whose commutator norm exceeds
1 + NORM_TOL: its f(q) is then no proven lower bound.  The floor rounds f
down to multiples of two ulps of max|f|.  The repair is needed
because rounding in the ill-conditioned Schur matrix leaves the iterates
about 1e-9 off the constraints when the lengths span 1e-2 to 1e2.  For the
same reason the corrector's df is corrected for the part of r_p that A(dX)
misses; without that the 6 x 6 grid corner breaks down.  The direction is
linear in df, so each correction c is one update, df -= c, dS -= B(c) and
dX += sym(X B(c) S^-1), after which the miss is measured again.  The first
c solves through H^-1.  Near the optimum on such graphs the rounding errors
of H reach its smallest eigenvalues and can leave a miss of 1e-7, which
spoils the gap and then the positive definiteness of X.  So while the miss
can still move tr(X) - f(q) by a tenth of the stop tolerance, up to
REFINEMENT_PASSES more c solve with the Schur matrix as dX applies it,
built from X dS S^-1 one direction at a time on the eigenvectors of H, in
O(n^4).  A brute-force oracle gives independent values on small instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NumericError,
    ValidationError,
    finite_array,
    integer,
    overflow_is_numeric,
)
from .matrix_rep import _commutator, base_matrix, commutator_differential

DEFAULT_TOL = 1e-9  # relative duality gap at which a solve stops
ORACLE_MAX_POINTS = 6
ORACLE_PASSES = 3  # grid passes, each zoomed onto the previous incumbent
POLISH_MIN_STEP = 1e-8  # pattern-search step at which the polish stops
POLISH_MAX_SWEEPS = 2000

MAX_NEWTON_STEPS = 100  # iteration cap of the primal-dual solver
RESIDUAL_TOL = 1e-9  # largest accepted |tr(X B_k) + delta_kq| of the certificate X
NORM_TOL = 1e-9  # largest accepted ||[D, f]|| - 1 of a returned optimizer f
REFINEMENT_PASSES = 3  # most corrections through _applied_schur per direction


def _real_base(operator) -> np.ndarray:
    return finite_array(base_matrix(operator), "the distance's operator")


@dataclass(frozen=True)
class DistanceProblem:
    operator: object
    p: int
    q: int

    def __post_init__(self):
        for v in (self.p, self.q):
            integer(v, f"point index {v!r}")
        n = self.base.shape[0]
        if not (0 <= self.p < n and 0 <= self.q < n):
            raise ValidationError("point indices out of range")
        if self.p == self.q:
            raise ValidationError("the two points must differ")

    @cached_property
    def base(self) -> np.ndarray:
        return _real_base(self.operator)


@dataclass(frozen=True)
class DistanceSolution:
    """`value` = optimizer[q] - optimizer[p] at norm `constraint_norm`, the
    certified `upper_bound`, `status` "certified" or "infinite", and the
    solver's iterations `newton_steps`, final certificate `residual`
    max |tr(X B_k) + delta_kq| and wall time `seconds`, 0 when infinite."""

    value: float
    optimizer: np.ndarray
    constraint_norm: float
    upper_bound: float
    newton_steps: int
    status: str
    residual: float
    seconds: float


def commutator_norm(operator, f) -> float:
    """Operator norm of [D, f], its largest singular value; the doubled
    operator gives the same norm because D is real."""
    c = commutator_differential(_real_base(operator), f)
    return float(np.linalg.norm(c, 2))


def _undirected_components(d: np.ndarray) -> np.ndarray:
    """Component label per vertex of the symmetrized nonzero pattern, its
    least reachable vertex: each squaring of the pattern plus the diagonal
    doubles the path length it covers, up to n - 1 in that many squarings."""
    n = d.shape[0]
    reach = (d != 0) | (d.T != 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach.argmax(axis=1)


def _lmi(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c_k B_k over the free points k = 1 .. n-1, the 2n x 2n block
    form of [D, f] for f = (0, c): point 0 is the pinned one."""
    n = d.shape[0]
    com = _commutator(d, np.concatenate(([0.0], c)))
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = com
    m[n:, :n] = com.T
    return m


def _lmi_adjoint(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tr(X B_k) for every free k.

    B_k has the blocks A_k = D[:, k] e_k^T - e_k D[k, :] and A_k^T, so
    tr(X B_k) = <Y, A_k> with Y = X_12 + X_21^T: column sum minus row sum
    of D o Y.
    """
    n = d.shape[0]
    dy = d * (x[:n, n:] + x[n:, :n].T)
    return (dy.sum(axis=0) - dy.sum(axis=1))[1:]


def _schur(d: np.ndarray, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """H_kl = tr(X B_k S^-1 B_l) over the free k and l, the Schur matrix of
    the HKM direction.

    B_k = L_k J L_k^T with L_k = [P D[:, k], Q e_k, P e_k, Q D[k, :]^T],
    where P and Q embed R^n as the top and bottom half of R^2n and J swaps
    the first two columns and the last two with a minus sign.  For
    K_M = J L^T M L (4n x 4n, one n-block per column type of L),
    H_kl = tr(J L_k^T S^-1 L_l J L_l^T X L_k) is the sum of
    K_S[ak, gl] K_X[gl, ak] over the 16 block pairs, so H costs a few
    n x n x 2n products instead of an O(n^4) contraction.  With X = S^-1 it
    is the Hessian of -log det S.
    """
    n = d.shape[0]
    m = np.array([x, s_inv])
    top, bot = m[..., :n], m[..., n:]
    ml = np.concatenate([top @ d, bot, top, bot @ d.T], axis=2)
    k = np.concatenate([ml[:, n:], d.T @ ml[:, :n], -(d @ ml[:, n:]), -ml[:, :n]], axis=1)
    return (k[1] * k[0].T).reshape(4, n, 4, n).sum(axis=(0, 2))[1:, 1:]


def _applied_schur(d: np.ndarray, x: np.ndarray, s_inv: np.ndarray, h: np.ndarray):
    """The Schur matrix as `_hkm_direction` applies it: (V, G) with
    G[:, j] = tr(X dS(V[:, j]) S^-1 B_k) over the free k, computed from the
    product X dS S^-1 that dX is made of, and every column of norm one.
    V holds the eigenvectors of the built Schur matrix h: on unit vectors
    the soft directions (eigenvalues near 1e-2 at the end of a solve) would
    cancel inside columns dominated by stiff ones (near 1e14).  O(n^4).
    """
    basis = np.linalg.eigh(h)[1]
    g = np.array([_lmi_adjoint(d, x @ _lmi(d, v) @ s_inv) for v in basis.T]).T
    scale = np.linalg.norm(g, axis=0)
    return basis / scale, g / scale


def _hkm_direction(d, x, s_inv, df, r):
    """dS = sum_k df_k B_k over the free k and the HKM step dX = sym(R - X dS S^-1) - X."""
    ds = _lmi(d, df)
    dx = r - x @ ds @ s_inv
    return ds, 0.5 * (dx + dx.T) - x


def _step_to_boundary(chol_inv: np.ndarray, dx: np.ndarray, ds: np.ndarray) -> float:
    """Largest a with X + a dX and S + a dS both positive semidefinite,
    from the eigenvalues of L^-1 dM L^-T for the Cholesky factors L."""
    pencil = chol_inv @ np.array([dx, ds]) @ chol_inv.transpose(0, 2, 1)
    lowest = float(np.linalg.eigvalsh(pencil)[:, 0].min())
    return -1.0 / lowest if lowest < 0.0 else math.inf


def _repaired(d: np.ndarray, x: np.ndarray, infeasible: np.ndarray) -> np.ndarray:
    """X + sum_k c_k B_k over the free k that meets tr(. B_k) = -delta_kq,
    given infeasible = -delta_kq - tr(X B_k).  Least squares through the Gram
    matrix tr(B_k B_l) = 2 (diag(W 1) - W) with W = D o D + (D o D)^T."""
    w = d * d
    w = w + w.T
    gram = 2.0 * (np.diag(w.sum(axis=1)) - w)[1:, 1:]
    c = np.linalg.solve(gram, infeasible)
    return x + _lmi(d, c)


def _floored(f: np.ndarray) -> np.ndarray:
    """f rounded down to multiples of two ulps of max|f|, inside the margin
    M(f) > 0 leaves: adding a constant on that grid then changes no
    difference f_j - f_i, so [D, f + c] equals [D, f] bit for bit."""
    unit = math.ldexp(1.0, math.frexp(float(np.abs(f).max()))[1] - 52)
    return np.floor(f / unit) * unit


def _primal_dual_solve(d: np.ndarray, q: int):
    """Certified max f(q) s.t. M(f) >= 0 on a connected D, iterated on the
    free values f_1 .. f_n-1 with q indexing them: (f, upper_bound,
    iterations, residual) with f(0) = 0 put back, M(f) positive definite and
    f floored, so the stop test judges the value that is returned."""
    n = d.shape[0]
    dim = 2 * n
    target = np.eye(n - 1)[q]  # delta_kq over the free k
    f = np.zeros(n - 1)
    xs = np.array([np.eye(dim), np.eye(dim)])  # the iterates X and S = M(f)
    x, s = xs
    for iteration in range(MAX_NEWTON_STEPS + 1):
        infeasible = -_lmi_adjoint(d, x) - target  # r_p = -delta_q - A(X)
        upper = float(x.trace())  # also the repaired trace
        if upper - f[q] <= DEFAULT_TOL * upper:
            floored = _floored(f)
            cert = _repaired(d, x, infeasible)
            residual = float(np.abs(_lmi_adjoint(d, cert) + target).max())
            # a negative eigenvalue -e of the certificate is absorbed by
            # cert + e I, which every tr(. B_k) ignores
            bound = upper + dim * max(0.0, -float(np.linalg.eigvalsh(cert)[0]))
            gap = bound - floored[q]
            if residual <= RESIDUAL_TOL and 0.0 <= gap <= DEFAULT_TOL * bound:
                return np.append(0.0, floored), bound, iteration, residual
        if iteration == MAX_NEWTON_STEPS:
            break
        try:
            chol_inv = np.linalg.inv(np.linalg.cholesky(xs))
            s_inv = chol_inv[1].T @ chol_inv[1]
            h = _schur(d, x, s_inv)
            h_inv = np.linalg.inv(h)
        except np.linalg.LinAlgError as exc:
            raise NumericError("primal-dual iterate lost positive definiteness") from exc
        mu = float(np.vdot(x, s)) / dim
        # predictor: the affine-scaling direction toward mu = 0, df = H^-1 delta_q
        ds_a, dx_a = _hkm_direction(d, x, s_inv, h_inv[:, q], 0.0)
        step_a = min(1.0, _step_to_boundary(chol_inv, dx_a, ds_a))
        mu_a = float(np.vdot(x + step_a * dx_a, s + step_a * ds_a)) / dim
        # corrector: centering at sigma mu plus the second-order term
        r = (mu_a / mu) ** 3 * mu * s_inv - dx_a @ ds_a @ s_inv
        df = h_inv @ (_lmi_adjoint(d, r) + target)
        ds, dx = _hkm_direction(d, x, s_inv, df, r)
        # each pass takes out the part of r_p that A(dX) misses
        correction = h_inv @ (infeasible - _lmi_adjoint(d, dx))
        for refinement in range(REFINEMENT_PASSES + 1):
            dm = _lmi(d, correction)
            gain = x @ dm @ s_inv
            df -= correction
            ds -= dm
            dx += 0.5 * (gain + gain.T)
            miss = infeasible - _lmi_adjoint(d, dx)
            # enough once the miss moves tr(X) - f(q) = tr(XS) + f . r_p by
            # less than a tenth of the stop tolerance
            if refinement == REFINEMENT_PASSES or (
                np.abs(f) @ np.abs(miss) <= 0.1 * DEFAULT_TOL * upper
            ):
                break
            try:
                if refinement == 0:
                    basis, applied = _applied_schur(d, x, s_inv, h)
                correction = basis @ np.linalg.solve(applied, miss)
            except np.linalg.LinAlgError as exc:
                raise NumericError("singular Schur matrix in the refinement") from exc
        # 90-99% of the way to the boundary, more when the predictor went far
        step = min(1.0, (0.9 + 0.09 * step_a) * _step_to_boundary(chol_inv, dx, ds))
        x += step * dx
        f += step * df
        s[:] = _lmi(d, f)
        np.fill_diagonal(s, 1.0)
    raise NumericError(f"no certificate after {MAX_NEWTON_STEPS} iterations")


@overflow_is_numeric
def distance(prob: DistanceProblem) -> DistanceSolution:
    """Certified Connes distance by the primal-dual method.

    Deterministic.  Raises NumericError when the iteration breaks down,
    does not certify its value within MAX_NEWTON_STEPS iterations, or ends
    on an optimizer whose commutator norm exceeds 1 + NORM_TOL.
    """
    start = time.perf_counter()
    d = prob.base
    n = d.shape[0]
    p, q = prob.p, prob.q
    labels = _undirected_components(d)
    if labels[p] != labels[q]:
        indicator = (labels == labels[q]).astype(float)
        # no function constraint couples the components, so R is unbounded
        return DistanceSolution(
            value=math.inf,
            optimizer=indicator,
            constraint_norm=commutator_norm(d, indicator),
            upper_bound=math.inf,
            newton_steps=0,
            status="infinite",
            residual=0.0,
            seconds=0.0,
        )
    # other components only add directions along which nothing changes
    comp = np.flatnonzero(labels == labels[p])
    free = comp[comp != p]
    comp = np.concatenate(([p], free))  # f(p) = 0 is pinned first
    sub = d[np.ix_(comp, comp)]
    # the solve runs on D 2^-s with max|D| 2^-s in [0.5, 1)
    s = math.frexp(float(np.abs(sub).max()))[1]
    f, upper, iterations, residual = _primal_dual_solve(
        np.ldexp(sub, -s), int(np.flatnonzero(free == q)[0])
    )
    optimizer = np.zeros(n)
    optimizer[comp] = np.ldexp(f, -s)
    norm = commutator_norm(d, optimizer)
    if norm > 1.0 + NORM_TOL:
        # the value is then no proven lower bound
        raise NumericError(f"optimizer has commutator norm 1 + {norm - 1.0:.3g}")
    return DistanceSolution(
        value=float(optimizer[q] - optimizer[p]),
        optimizer=optimizer,
        constraint_norm=norm,
        upper_bound=math.ldexp(upper, -s),
        newton_steps=iterations,
        status="certified",
        residual=residual,
        seconds=time.perf_counter() - start,
    )


def distance_matrix(operator) -> np.ndarray:
    """All-pairs symmetric distance matrix with zero diagonal."""
    d = _real_base(operator)
    n = d.shape[0]
    if n == 0:
        raise ValidationError("the distance's operator must have at least one point")
    m = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            m[a, b] = m[b, a] = distance(DistanceProblem(d, a, b)).value
    return m


# -- brute-force oracle ------------------------------------------------------

_GRID_SIZES = {1: 4001, 2: 61, 3: 25, 4: 13, 5: 9}


def _oracle_ratio_batch(d, p, q, fs):
    s = np.linalg.svd(_commutator(d, fs), compute_uv=False)[:, 0]
    num = fs[:, q] - fs[:, p]
    num = np.abs(num) if np.iscomplexobj(fs) else num
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(s > 1e-30, num / s, -np.inf)
    return np.real(r)


def _polish_directions(dims: int) -> np.ndarray:
    """Signed direction stencil for the pattern search.

    The ratio is a maximum of smooth pieces, so its optima sit on ridges
    where several singular values tie; crossing such a ridge can require
    a coordinated move of many coordinates, which axis steps alone never
    find.  The oracle has at most five dimensions, where the full
    {-1, 0, 1} stencil is cheap.
    """
    from itertools import combinations, product

    eye = np.eye(dims)
    dirs = []
    for size in range(1, dims + 1):
        for support in combinations(range(dims), size):
            for signs in product((1.0, -1.0), repeat=size):
                v = sum(s * eye[i] for s, i in zip(signs, support))
                dirs.append(v / math.sqrt(size))
    return np.array(dirs)


def _compass_polish(batch_fun, x0, step):
    """Pattern search: evaluate the direction stencil in one batch per
    sweep, ray-expand along the best improving direction, halve the step
    when nothing improves."""
    x = np.array(x0, dtype=float)
    dirs = _polish_directions(x.size)
    ray = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    best = float(batch_fun(x[None, :])[0])
    sweeps = 0
    while step > POLISH_MIN_STEP and sweeps < POLISH_MAX_SWEEPS:
        sweeps += 1
        vals = batch_fun(x[None, :] + step * dirs)
        k = int(np.argmax(vals))
        if vals[k] > best:
            cands = x[None, :] + (step * ray)[:, None] * dirs[k][None, :]
            rvals = batch_fun(cands)
            r = int(np.argmax(rvals))
            best = float(rvals[r])
            x = cands[r]
        else:
            step *= 0.5
    return x, best


def oracle_distance(prob: DistanceProblem, complex_functions: bool = False) -> float:
    """Brute-force maximization of the ratio over a refined coordinate grid.

    One coordinate is pinned to zero at p; the first pass covers the box
    [0, B]^(N-1) with B = N times the longest edge, later passes zoom onto
    the incumbent, and a deterministic compass search squeezes the final
    cell.  Real functions by default; `complex_functions` embeds the free
    phases for small N as a cross-check of the real-sufficiency reduction.
    """
    d = prob.base
    n = d.shape[0]
    if n > ORACLE_MAX_POINTS:
        raise ValidationError(f"oracle limited to {ORACLE_MAX_POINTS} points, got {n}")
    p, q = prob.p, prob.q
    labels = _undirected_components(d)
    if labels[p] != labels[q]:
        return math.inf
    if complex_functions and n > 4:
        raise ValidationError("complex oracle limited to 4 points")
    weights = np.abs(d[d != 0])
    box = n * float((1.0 / weights).max())

    free = [k for k in range(n) if k != p]
    if not complex_functions:
        dims = len(free)

        def assemble(coords):
            fs = np.zeros((coords.shape[0], n))
            fs[:, free] = coords
            return fs
    else:
        # f(q) may be taken real and nonnegative (global phase); every other
        # free coordinate contributes a real and an imaginary part
        others = [k for k in free if k != q]
        dims = 1 + 2 * len(others)

        def assemble(coords):
            fs = np.zeros((coords.shape[0], n), dtype=complex)
            fs[:, q] = coords[:, 0]
            for idx, k in enumerate(others):
                fs[:, k] = coords[:, 1 + 2 * idx] + 1j * coords[:, 2 + 2 * idx]
            return fs

    m = _GRID_SIZES[dims]
    center = np.full(dims, box / 2.0)
    half_width = np.full(dims, box / 2.0)
    if complex_functions:
        center[1:] = 0.0

    best_x = center.copy()
    best_val = -math.inf
    seeds = []
    for pass_index in range(ORACLE_PASSES):
        axes = [np.linspace(c - hw, c + hw, m) for c, hw in zip(center, half_width)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([g.ravel() for g in mesh], axis=1)
        vals = np.empty(coords.shape[0])
        chunk = 20_000
        for lo in range(0, coords.shape[0], chunk):
            batch = coords[lo : lo + chunk]
            vals[lo : lo + chunk] = _oracle_ratio_batch(d, p, q, assemble(batch))
        top = int(np.argmax(vals))
        if pass_index == 0:
            # keep a few diverse first-pass candidates for the final polish
            for s in np.argsort(vals)[::-1][:3]:
                seeds.append(coords[s].copy())
        if vals[top] > best_val:
            best_val = float(vals[top])
            best_x = coords[top].copy()
        cell = 2.0 * half_width / (m - 1)
        center = best_x
        half_width = 2.0 * cell

    def batch_fun(xs):
        return _oracle_ratio_batch(d, p, q, assemble(xs))

    step0 = max(float(half_width.max()), box / (m - 1))
    result = best_val
    for seed in [best_x] + seeds:
        _, polished = _compass_polish(batch_fun, seed, step=step0)
        result = max(result, polished)
    return result

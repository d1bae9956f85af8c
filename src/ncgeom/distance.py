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
`distance` solves both at once from X = M(0) = I by an infeasible-start
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
f(q) agree to the relative gap DEFAULT_TOL, and raises NumericError rather
than return an uncertified value.  The repair is needed because rounding in
the ill-conditioned Schur matrix leaves the iterates about 1e-9 off the
constraints when the lengths span 1e-2 to 1e2.  For the same reason each
corrector direction gets one refinement pass that solves for the residual
dX misses; without it the 6 x 6 grid corner breaks down.  A brute-force
oracle gives independent values on small instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .matrix_rep import base_matrix, commutator_differential

DEFAULT_TOL = 1e-9  # relative duality gap at which a solve stops
ORACLE_MAX_POINTS = 6
ORACLE_PASSES = 3  # grid passes, each zoomed onto the previous incumbent
POLISH_MIN_STEP = 1e-8  # pattern-search step at which the polish stops
POLISH_MAX_SWEEPS = 2000

MAX_NEWTON_STEPS = 100  # iteration cap of the primal-dual solver
RESIDUAL_TOL = 1e-9  # largest accepted |tr(X B_k) + delta_kq| of the certificate X


def _real_base(operator) -> np.ndarray:
    d = base_matrix(operator)
    if np.iscomplexobj(d):
        raise ValidationError("the distance needs a real operator")
    return d


@dataclass(frozen=True)
class DistanceProblem:
    operator: object
    p: int
    q: int

    def __post_init__(self):
        n = self.base.shape[0]
        if not (0 <= self.p < n and 0 <= self.q < n):
            raise ValidationError("point indices out of range")
        if self.p == self.q:
            raise ValidationError("the two points must differ")

    @property
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
    """Component label per vertex of the symmetrized nonzero pattern."""
    n = d.shape[0]
    coupled = (d != 0) | (d.T != 0)
    labels = np.full(n, -1)
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(coupled[u]):
                if labels[v] < 0:
                    labels[v] = start
                    stack.append(int(v))
    return labels


def _lmi(d: np.ndarray, f: np.ndarray, identity: float = 1.0) -> np.ndarray:
    """identity * I + sum_k f_k B_k, the 2n x 2n block form of [D, f]."""
    n = d.shape[0]
    c = commutator_differential(d, f)
    m = identity * np.eye(2 * n)
    m[:n, n:] = c
    m[n:, :n] = c.T
    return m


def _lmi_adjoint(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tr(X B_k) for every k.

    B_k has the blocks A_k = D[:, k] e_k^T - e_k D[k, :] and A_k^T, so
    tr(X B_k) = <Y, A_k> with Y = X_12 + X_21^T: column sum minus row sum
    of D o Y.
    """
    n = d.shape[0]
    dy = d * (x[:n, n:] + x[n:, :n].T)
    return dy.sum(axis=0) - dy.sum(axis=1)


def _schur(d: np.ndarray, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
    """H_kl = tr(X B_k S^-1 B_l), the Schur matrix of the HKM direction.

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
    return (k[1] * k[0].T).reshape(4, n, 4, n).sum(axis=(0, 2))


def _hkm_direction(d, x, s_inv, df, r):
    """dS = sum_k df_k B_k over the free k and the HKM step dX = sym(R - X dS S^-1) - X."""
    ds = _lmi(d, np.concatenate(([0.0], df)), identity=0.0)
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
    return x + _lmi(d, np.concatenate(([0.0], c)), identity=0.0)


def _primal_dual_solve(d: np.ndarray, q: int):
    """Certified max f(q) s.t. M(f) >= 0 with f(0) = 0 on a connected D:
    (f, upper_bound, iterations, residual) with M(f) positive definite."""
    n = d.shape[0]
    dim = 2 * n
    target = np.eye(n - 1)[q - 1]  # delta_kq over the free k = 1 .. n-1
    f = np.zeros(n)
    xs = np.array([np.eye(dim), np.eye(dim)])  # the iterates X and S = M(f)
    x, s = xs
    for iteration in range(MAX_NEWTON_STEPS + 1):
        infeasible = -_lmi_adjoint(d, x)[1:] - target  # r_p = -delta_q - A(X)
        upper = float(x.trace())  # also the repaired trace
        if upper - f[q] <= DEFAULT_TOL * upper:
            cert = _repaired(d, x, infeasible)
            residual = float(np.abs(_lmi_adjoint(d, cert)[1:] + target).max())
            # a negative eigenvalue -e of the certificate is absorbed by
            # cert + e I, which every tr(. B_k) ignores
            bound = upper + dim * max(0.0, -float(np.linalg.eigvalsh(cert)[0]))
            if residual <= RESIDUAL_TOL and 0.0 <= bound - f[q] <= DEFAULT_TOL * bound:
                return f, bound, iteration, residual
        if iteration == MAX_NEWTON_STEPS:
            break
        try:
            chol_inv = np.linalg.inv(np.linalg.cholesky(xs))
            s_inv = chol_inv[1].T @ chol_inv[1]
            h_inv = np.linalg.inv(_schur(d, x, s_inv)[1:, 1:])
        except np.linalg.LinAlgError as exc:
            raise NumericError("primal-dual iterate lost positive definiteness") from exc
        mu = float(np.vdot(x, s)) / dim
        # predictor: the affine-scaling direction toward mu = 0, df = H^-1 delta_q
        ds_a, dx_a = _hkm_direction(d, x, s_inv, h_inv[:, q - 1], 0.0)
        step_a = min(1.0, _step_to_boundary(chol_inv, dx_a, ds_a))
        mu_a = float(np.vdot(x + step_a * dx_a, s + step_a * ds_a)) / dim
        # corrector: centering at sigma mu plus the second-order term
        r = (mu_a / mu) ** 3 * mu * s_inv - dx_a @ ds_a @ s_inv
        df = h_inv @ (_lmi_adjoint(d, r)[1:] + target)
        ds, dx = _hkm_direction(d, x, s_inv, df, r)
        # refinement: solve once more for the part of r_p that A(dX) misses
        df -= h_inv @ (infeasible - _lmi_adjoint(d, dx)[1:])
        ds, dx = _hkm_direction(d, x, s_inv, df, r)
        # 90-99% of the way to the boundary, more when the predictor went far
        step = min(1.0, (0.9 + 0.09 * step_a) * _step_to_boundary(chol_inv, dx, ds))
        x += step * dx
        f[1:] += step * df
        s[:] = _lmi(d, f)
    raise NumericError(f"no certificate after {MAX_NEWTON_STEPS} iterations")


def distance(prob: DistanceProblem) -> DistanceSolution:
    """Certified Connes distance by the primal-dual method.

    Deterministic.  Raises NumericError when the iteration breaks down or
    does not certify its value within MAX_NEWTON_STEPS iterations.
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
    comp = np.concatenate(([p], comp[comp != p]))  # f(p) = 0 is pinned first
    f, upper, iterations, residual = _primal_dual_solve(
        d[np.ix_(comp, comp)], int(np.flatnonzero(comp == q)[0])
    )
    # Round f down to multiples of 2^-44 times its size, far inside the
    # margin M(f) > 0 leaves: adding a constant on that grid then changes no
    # difference f_j - f_i, so [D, f + c] equals [D, f] bit for bit, and the
    # value stays at most f(q), below the bound.
    unit = math.ldexp(1.0, math.frexp(float(np.abs(f).max()))[1] - 44)
    optimizer = np.zeros(n)
    optimizer[comp] = np.floor(f / unit) * unit
    return DistanceSolution(
        value=float(optimizer[q] - optimizer[p]),
        optimizer=optimizer,
        constraint_norm=commutator_norm(d, optimizer),
        upper_bound=upper,
        newton_steps=iterations,
        status="certified",
        residual=residual,
        seconds=time.perf_counter() - start,
    )


def distance_matrix(operator) -> np.ndarray:
    """All-pairs symmetric distance matrix with zero diagonal."""
    n = base_matrix(operator).shape[0]
    m = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            m[a, b] = m[b, a] = distance(DistanceProblem(operator, a, b)).value
    return m


# -- brute-force oracle ------------------------------------------------------

_GRID_SIZES = {1: 4001, 2: 61, 3: 25, 4: 13, 5: 9}


def _oracle_ratio_batch(d, p, q, fs):
    c = d[None, :, :] * (fs[:, None, :] - fs[:, :, None])
    s = np.linalg.svd(c, compute_uv=False)[:, 0]
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
    find.  Up to five dimensions the full {-1, 0, 1} stencil is cheap;
    beyond that the supports are capped at three coordinates.
    """
    from itertools import combinations, product

    eye = np.eye(dims)
    dirs = []
    sizes = range(1, dims + 1) if dims <= 5 else (1, 2, 3)
    for size in sizes:
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


def _grid_axes(center, half_width, m):
    return [np.linspace(c - hw, c + hw, m) for c, hw in zip(center, half_width)]


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

    m = _GRID_SIZES.get(dims, 7)
    center = np.full(dims, box / 2.0)
    half_width = np.full(dims, box / 2.0)
    if complex_functions:
        center[1:] = 0.0
        half_width[1:] = box / 2.0

    best_x = center.copy()
    best_val = -math.inf
    seeds = []
    for pass_index in range(ORACLE_PASSES):
        axes = _grid_axes(center, half_width, m)
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

"""Connes' distance function on finite sets from weighted digraph triples.

The distance between point states p and q is the supremum of f(q) - f(p)
over functions whose commutator with the (doubled) operator has norm at
most one.  For real D the doubled and undoubled norms agree for every f,
since [D^T, f] = -[D, f]^T.  The solver takes f real (the oracle's complex
mode cross-checks that reduction), so with f(p) pinned to zero it is the
semidefinite program

    maximize f(q)  s.t.  M(f) = [[I, C(f)], [C(f)^T, I]] = I + sum_k f_k B_k >= 0,

C(f) = D o (f_j - f_i).  `distance` runs a long-step log-det barrier Newton
method (Boyd & Vandenberghe, Convex Optimization, 11.6) on
-t f(q) - log det M(f) from the strictly feasible f = 0, multiplying t by a
constant after each centering; its line search keeps the Cholesky factor of
M valid, so every iterate is feasible and f(q) is a lower bound.  Each B_k
has rank at most four, which gives the Newton Hessian in O(n^3).

The upper bound is a dual certificate: for the Newton step df at W = M^-1,
Z = (W - W dM W) / t with dM = sum_k df_k B_k satisfies tr(Z B_k) = -delta_kq
for every free k and is positive semidefinite when the Newton decrement is
below one, so tr(Z) bounds the distance by weak duality.  A solve stops when
tr(Z) and f(q) agree to a relative gap `tol` and raises NumericError rather
than return an uncertified value.  A brute-force refined-grid oracle gives
independent values on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .matrix_rep import base_matrix, commutator_differential

DEFAULT_TOL = 1e-9  # relative duality gap at which a solve stops
ORACLE_MAX_POINTS = 6

T_START = 1.0
T_FACTOR = 50.0  # barrier parameter growth after each centering
CENTERED = 0.25  # squared Newton decrement at which t grows; below 1 keeps Z > 0
MAX_NEWTON_STEPS = 500
LINE_SEARCH_ALPHA = 0.25  # fraction of the predicted decrease a step must achieve
MIN_STEP = 1e-12
RESIDUAL_TOL = 1e-9  # largest accepted |tr(Z B_k) + delta_kq|


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
    use_real_functions: bool = True

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
    certified `upper_bound`, and `status` "certified" or "infinite"."""

    value: float
    optimizer: np.ndarray
    constraint_norm: float
    upper_bound: float
    newton_steps: int
    status: str


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


def _barrier_hessian(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """H_kl = tr(W B_k W B_l), the Hessian of -log det M at W = M^-1.

    B_k = L_k S L_k^T with L_k = [P D[:, k], Q e_k, P e_k, Q D[k, :]^T],
    where P and Q embed R^n as the top and bottom half of R^2n and S swaps
    the first two columns and the last two with a minus sign.  With the
    4 x 4 blocks G_kl = L_k^T W L_l, H_kl = tr(S G_kl S G_lk).  In terms of
    K = S L^T W L (4n x 4n, one n-block per column type of L) that is the
    sum of K[ak, gl] K[gl, ak] over the 16 block pairs, so H costs four
    n x n x 2n products instead of an O(n^4) contraction.
    """
    n = d.shape[0]
    w_top, w_bot = w[:, :n], w[:, n:]
    wl = np.hstack([w_top @ d, w_bot, w_top, w_bot @ d.T])
    k = np.vstack([wl[n:], d.T @ wl[:n], -(d @ wl[n:]), -wl[:n]])
    return (k * k.T).reshape(4, n, 4, n).sum(axis=(0, 2))


def _log_det(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(np.diagonal(chol)).sum())


def _dual_bound(d: np.ndarray, w: np.ndarray, df: np.ndarray, t: float, p: int, q: int) -> float:
    """tr(Z) for the certificate Z = (W - W dM W) / t, after checking Z.

    Every B_k is traceless, so a negative eigenvalue -e of Z is absorbed by
    Z + e I at the price 2n e on the bound.
    """
    z = (w - w @ _lmi(d, df, identity=0.0) @ w) / t
    z = 0.5 * (z + z.T)
    residual = _lmi_adjoint(d, z)
    residual[q] += 1.0
    residual[p] = 0.0  # f(p) is pinned; tr(Z B_p) follows from the others
    if not float(np.abs(residual).max()) <= RESIDUAL_TOL:
        raise NumericError(f"dual certificate residual {np.abs(residual).max():.3g}")
    shift = max(0.0, -float(np.linalg.eigvalsh(z)[0]))
    return float(np.trace(z)) + z.shape[0] * shift


def _barrier_solve(d: np.ndarray, p: int, q: int, tol: float):
    """Certified max f(q) s.t. ||[D, f]|| <= 1, f(p) = 0 on a connected D.

    Returns (f, upper_bound, newton_steps) with M(f) strictly positive
    definite and upper_bound - f(q) <= tol * upper_bound.
    """
    n = d.shape[0]
    free = np.arange(n) != p
    f = np.zeros(n)
    chol = np.eye(2 * n)  # Cholesky factor of M(0) = I
    t = T_START
    for steps in range(MAX_NEWTON_STEPS):
        chol_inv = np.linalg.inv(chol)
        w = chol_inv.T @ chol_inv
        grad_barrier = -_lmi_adjoint(d, w)  # gradient of -log det M
        hess = _barrier_hessian(d, w)[np.ix_(free, free)]
        while True:
            grad = grad_barrier.copy()
            grad[q] -= t
            try:
                step = np.linalg.solve(hess, -grad[free])
            except np.linalg.LinAlgError as exc:
                raise NumericError("singular Newton system") from exc
            df = np.zeros(n)
            df[free] = step
            decrement2 = float(-grad[free] @ step)
            if decrement2 > CENTERED:
                break
            upper = _dual_bound(d, w, df, t, p, q)
            if upper - f[q] <= tol * upper:
                return f, upper, steps
            t *= T_FACTOR
        # backtracking on the barrier objective; a failed factorization
        # means the trial point left the feasible set
        log_det = _log_det(chol)
        s = 1.0
        while True:
            try:
                trial = np.linalg.cholesky(_lmi(d, f + s * df))
            except np.linalg.LinAlgError:
                trial = None
            if trial is not None:
                change = -t * s * df[q] - (_log_det(trial) - log_det)
                if change <= -LINE_SEARCH_ALPHA * s * decrement2:
                    break
            s *= 0.5
            if s < MIN_STEP:
                raise NumericError("centering cannot keep M(f) positive definite")
        f = f + s * df
        chol = trial
    raise NumericError(f"no certificate after {MAX_NEWTON_STEPS} Newton steps")


def distance(prob: DistanceProblem, tol: float = DEFAULT_TOL) -> DistanceSolution:
    """Certified Connes distance by the log-det barrier method.

    Deterministic.  Raises NumericError when the barrier iteration breaks
    down or the dual certificate fails.
    """
    d = prob.base
    if not tol > 0:
        raise ValidationError("tol must be positive")
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
        )
    # other components only add directions along which nothing changes
    comp = np.flatnonzero(labels == labels[p])
    local = {int(v): k for k, v in enumerate(comp)}
    f, upper, steps = _barrier_solve(d[np.ix_(comp, comp)], local[p], local[q], tol)
    # Round f to multiples of 2^-44 times its size, far inside the margin
    # M(f) > 0 leaves: adding a constant on that grid then changes no
    # difference f_j - f_i, so [D, f + c] equals [D, f] bit for bit.
    unit = math.ldexp(1.0, math.frexp(float(np.abs(f).max()))[1] - 44)
    optimizer = np.zeros(n)
    optimizer[comp] = np.round(f / unit) * unit
    return DistanceSolution(
        value=float(optimizer[q] - optimizer[p]),
        optimizer=optimizer,
        constraint_norm=commutator_norm(d, optimizer),
        upper_bound=upper,
        newton_steps=steps,
        status="certified",
    )


def distance_matrix(operator, points=None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All-pairs symmetric distance matrix with zero diagonal."""
    d = base_matrix(operator)
    points = list(range(d.shape[0])) if points is None else list(points)
    m = np.zeros((len(points), len(points)))
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            sol = distance(DistanceProblem(operator, points[a], points[b]), tol)
            m[a, b] = m[b, a] = sol.value
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


def _compass_polish(batch_fun, x0, step, min_step=1e-8, max_sweeps=2000):
    """Pattern search: evaluate the direction stencil in one batch per
    sweep, ray-expand along the best improving direction, halve the step
    when nothing improves."""
    x = np.array(x0, dtype=float)
    dirs = _polish_directions(x.size)
    ray = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    best = float(batch_fun(x[None, :])[0])
    sweeps = 0
    while step > min_step and sweeps < max_sweeps:
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


def oracle_distance(prob: DistanceProblem, passes: int = 3) -> float:
    """Brute-force maximization of the ratio over a refined coordinate grid.

    One coordinate is pinned to zero at p; the first pass covers the box
    [0, B]^(N-1) with B = N times the longest edge, later passes zoom onto
    the incumbent, and a deterministic compass search squeezes the final
    cell.  Real functions by default; the complex mode embeds the free
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
    if not prob.use_real_functions and n > 4:
        raise ValidationError("complex oracle limited to 4 points")
    weights = np.abs(d[d != 0])
    box = n * float((1.0 / weights).max())

    free = [k for k in range(n) if k != p]
    if prob.use_real_functions:
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
    if not prob.use_real_functions:
        center[1:] = 0.0
        half_width[1:] = box / 2.0

    best_x = center.copy()
    best_val = -math.inf
    seeds = []
    for pass_index in range(passes):
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

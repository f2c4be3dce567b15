"""Optimization-based quadrature for correlated mixtures.

Nodes and nonnegative weights are found by minimizing ||Phi(nodes) w - e1||^2,
where row j of Phi holds basis function Psi_j at all nodes and e1 encodes
E[Psi_j] = delta_1j. Block coordinate descent alternates an exact nonnegative
least-squares solve in w with a damped Gauss-Newton move of the nodes; an
adaptive driver grows the node count until the solve converges, then prunes
low-weight nodes while convergence holds. In one dimension the minimal rule
is the Gauss rule of the measure, so the driver starts there from the
eigenvalues of the Jacobi matrix (Golub & Welsch 1969). The weight solve
(Lawson & Hanson 1974) and the Cholesky factorizations of the node moves run
in the compiled code of scipy's wheel, called through _lapack.
"""

from dataclasses import dataclass
from math import ceil, comb

import numpy as np
from numpy.linalg import LinAlgError

from . import _SOLVER_NAMES, _lapack
from .basis import _jacobian, _monomials, _one_blas_thread, _points, eval_basis_batch
from .distribution import raw_moments, sample
# perfbench/child.py reads rule_to_json and rule_from_json from this module
from .rules import IncreasePhaseError, QuadratureRule, rule_from_json, rule_to_json  # noqa: F401

__all__ = list(_SOLVER_NAMES)

# consecutive failed Gauss-Newton moves before an early non-converged exit;
# by then lambda has grown by 10^10 and the step is numerically dead
STALL_LIMIT = 10
# factor by which the increase phase grows the node count
INCREASE_FACTOR = 1.5
# outer iterations of one bcd_solve
MAX_OUTER_ITERS = 200
# step halvings of one Gauss-Newton line search
MAX_GN_BACKTRACKS = 20
# size of adaptive_rule's candidate cloud and its node cap, in multiples of N_2p
CLOUD_FACTOR = 10
# Gauss-Newton damping lambda after a successful move
GN_DAMPING = 1e-6
# step shrink per Gauss-Newton backtrack
LINE_SEARCH_SHRINK = 0.5
# largest distance the start clustering's float32 buffer holds
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class SolverConfig:
    """What a caller chooses: the residual tolerance and the seed of the start cloud.

    The budgets and the cloud size are the module constants above.
    """

    residual_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.residual_tol < np.inf:
            raise ValueError(f"residual_tol must be finite and > 0, got {self.residual_tol!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def assemble_phi(basis, nodes):
    """Exactness matrix Phi with Phi[j, k] = Psi_j(node_k), shape (N, M)."""
    return eval_basis_batch(basis, nodes).T


def residual(phi, w):
    """Residual r = Phi w - e1 and its Euclidean norm."""
    r = phi @ w
    r[0] -= 1.0
    return r, float(np.linalg.norm(r))


def _unit_rhs(N):
    e1 = np.zeros(N)
    e1[0] = 1.0
    return e1


def solve_weights(phi):
    """Nonnegative least squares min_{w >= 0} ||phi w - e1||^2.

    scipy.optimize.nnls (Lawson-Hanson active set), whose compiled routine
    _lapack.nnls calls without importing scipy.optimize. The returned point
    satisfies the KKT conditions of the convex problem: for active
    coordinates (w_i = 0) the gradient of ||phi w - e1||^2 is >= -1e-10, for
    inactive ones its magnitude is <= 1e-10 * ||phi^T e1||_inf.

    Returns
    -------
    (w, converged) : ndarray of shape (M,), bool
        converged is False only when the solver hits its iteration limit
        (3 * M); w is then all zeros.

    Raises
    ------
    ValueError
        If phi holds a NaN or an infinity.
    """
    phi = np.asarray(phi, dtype=float)
    try:
        return _lapack.nnls(phi, _unit_rhs(phi.shape[0]))[0], True
    except RuntimeError:
        return np.zeros(phi.shape[1]), False


def stacked_jacobian(basis, nodes, w):
    """Derivative of the residual with respect to all node coordinates.

    Shape (N, M * dim): column k * dim + i holds w_k * dPsi/dxi_i evaluated
    at node k, i.e. the blocks G_k = w_k * dPsi/dxi side by side.
    """
    return _stack_blocks(_jacobian(basis, _monomials(basis, _points(basis, nodes))), w)


def _stack_blocks(jall, w):
    """The stacked Jacobian from per-node Jacobians jall of shape (N, dim, M)."""
    N, d, M = jall.shape
    J = jall.transpose(0, 2, 1).reshape(N, M * d)
    J.reshape(N, M, d)[...] *= w[None, :, None]
    return J


def _evaluate(basis, nodes):
    """Monomial table and Phi (bit for bit assemble_phi's) of a node set."""
    mono = _monomials(basis, _points(basis, nodes))
    return mono, basis.coeff_matrix @ mono


def _damped_step(J, r, lam):
    """argmin_d ||J d + r||^2 + lam ||d||^2 by Cholesky of the smaller normal matrix.

    With J of shape (N, n): for n <= N solve (J^T J + lam I) d = -J^T r,
    otherwise (J J^T + lam I) y = r and d = -J^T y. LAPACK dpotrf and dpotrs
    (upper triangle, the routines and triangle of scipy's cho_factor and
    cho_solve, called through _lapack) work on the normal matrix: numpy forms
    it by syrk and mirrors one triangle into the other, so it is exactly
    symmetric, its transpose is the same matrix in Fortran order and dpotrf
    factors it in place. dpotrs solves on a copy of the right-hand side,
    which for n > N is the caller's residual r.
    Raises LinAlgError when the damped matrix is not numerically positive
    definite.
    """
    N, n = J.shape
    if n <= N:
        A, rhs = J.T @ J, J.T @ r
    else:
        A, rhs = J @ J.T, r
    A.reshape(-1)[:: len(A) + 1] += lam
    U, info = _lapack.dpotrf(A.T, lower=False)
    if info > 0:
        raise LinAlgError(f"leading minor {info} of the damped matrix is not positive definite")
    y, _ = _lapack.dpotrs(U, rhs, lower=False)
    return -y if n <= N else -(J.T @ y)


def gauss_newton_step(basis, nodes, w, r, lam, state=None):
    """One damped Gauss-Newton move of all nodes at fixed weights.

    The step solves min ||J d + r||^2 + lam ||d||^2 with J the stacked
    Jacobian, by a LAPACK Cholesky factorization of J^T J + lam I or
    J J^T + lam I, whichever is smaller (_damped_step), and is halved up to
    MAX_GN_BACKTRACKS times until the new residual does not exceed ||r||.
    A failed factorization or line search leaves the nodes unchanged and
    raises the damping tenfold; success resets it to GN_DAMPING.

    state is the (monomial table, Phi) pair of nodes, evaluated here when
    not given. J is built from that table. Each line-search trial is
    evaluated once (_evaluate), and the pair of the accepted trial is handed
    back, so a caller that passes it on evaluates every node set once.

    Returns
    -------
    (nodes, lam, improved, state) with state the pair of the returned nodes.
    """
    nodes = np.asarray(nodes, dtype=float)
    if state is None:
        state = _evaluate(basis, nodes)
    nrm = float(np.linalg.norm(r))
    try:
        J = _stack_blocks(_jacobian(basis, state[0]), w)
        step = _damped_step(J, r, lam).reshape(nodes.shape)
    except LinAlgError:
        return nodes, lam * 10.0, False, state
    s = 1.0
    for _ in range(MAX_GN_BACKTRACKS):
        cand = nodes + s * step
        trial = _evaluate(basis, cand)
        if residual(trial[1], w)[1] <= nrm:
            return cand, GN_DAMPING, True, trial
        s *= LINE_SEARCH_SHRINK
    return nodes, lam * 10.0, False, state


@_one_blas_thread()
def bcd_solve(basis, start, cfg):
    """Block coordinate descent from a fixed set of starting nodes.

    Alternates the exact weight solve with a Gauss-Newton node move until the
    residual meets cfg.residual_tol, MAX_OUTER_ITERS moves have been made
    (one last weight solve then fits the final nodes), the weight solve
    fails (its iteration limit leaves all weights zero, so every later node
    move would be a zero step), or the node move has failed STALL_LIMIT
    times in a row (the damping is then so large that further outer
    iterations cannot make progress).

    Each node set is evaluated once: the monomial table and Phi of the
    current nodes, carried from the line search that accepted them, serve
    the weight solve and the next Jacobian, with the arithmetic (and so the
    rule) of rebuilding them. The solve runs with the bundled OpenBLAS at one
    thread (basis._one_blas_thread).

    Returns
    -------
    QuadratureRule with converged set accordingly.
    """
    nodes = np.atleast_2d(np.asarray(start, dtype=float))
    state = _evaluate(basis, nodes)
    lam = GN_DAMPING
    hist = []
    stall = 0
    for it in range(MAX_OUTER_ITERS + 1):
        phi = state[1]
        w, solved = solve_weights(phi)
        r, nrm = residual(phi, w)
        hist.append(nrm)
        converged = solved and nrm <= cfg.residual_tol
        if converged or not solved or it == MAX_OUTER_ITERS:
            break
        nodes, lam, improved, state = gauss_newton_step(basis, nodes, w, r, lam, state)
        stall = 0 if improved else stall + 1
        if stall >= STALL_LIMIT:
            break
    return QuadratureRule(
        nodes=nodes,
        weights=w,
        residual_norm=nrm,
        basis_order=basis.order,
        history=tuple(hist),
        converged=converged,
        seed=cfg.seed,
    )


def _distances(X):
    """Euclidean distances between the rows of X, condensed in pdist order, in float32.

    Row i's distances to rows i + 1, ..., n - 1 fill one run of the result.
    Blocks of n // 256 rows take their differences to all later rows at
    once, in two float64 temporaries of about 3% of the result. Squares are
    summed coordinate by coordinate before the square root, as
    scipy.spatial.distance.pdist sums them, so each distance is pdist(X)'s
    bit for bit until it is stored rounded to float32.

    Raises
    ------
    ValueError
        If a distance is not finite or lies beyond the float32 range; the
        float64 values are checked before the cast.
    """
    n, d = X.shape
    out = np.empty(n * (n - 1) // 2, dtype=np.float32)
    Xt = np.ascontiguousarray(X.T)
    B = max(1, n // 256)
    acc, tmp = np.empty((2, B * n))
    start = 0
    for i in range(0, n - 1, B):
        rows, m = min(B, n - 1 - i), n - i - 1
        sq, t = acc[: rows * m].reshape(rows, m), tmp[: rows * m].reshape(rows, m)
        np.subtract(Xt[0, i : i + rows, None], Xt[0, i + 1 :], out=sq)
        sq *= sq
        for j in range(1, d):
            np.subtract(Xt[j, i : i + rows, None], Xt[j, i + 1 :], out=t)
            sq += np.multiply(t, t, out=t)
        # every entry of the block is a distance between two samples
        top = np.sqrt(sq, out=sq).max()
        if not np.isfinite(top):
            raise ValueError("the distances between candidate samples must be finite")
        if top > FLOAT32_MAX:
            raise ValueError(
                f"distance {top:.3e} between candidate samples exceeds the float32 "
                f"range (at most {FLOAT32_MAX:.3e})"
            )
        for r in range(rows):
            out[start : start + m - r] = sq[r, r:]
            start += m - r
    return out


def _complete_linkage(X):
    """Complete linkage of the rows of X by the nearest-neighbour chain, in place.

    The merge list of scipy.cluster.hierarchy.linkage on pdist(X) rounded to
    float32, bit for bit: the same chain (Murtagh 1983; Mullner 2011,
    arXiv:1109.2378) made in one condensed float32 buffer of the distances
    (_distances) that the merges overwrite. Slot i starts as sample i. The
    chain restarts at the lowest live slot; its tip moves to its nearest
    live slot, on ties the previous chain element and then the lowest index,
    until two slots are each other's nearest. Their cluster takes the higher
    slot, its distances the larger of the two (the Lance-Williams rule of
    complete linkage), and the lower slot's distances become inf, so no dead
    slot is ever nearest. Complete linkage reads distances only through max
    and comparisons, so no step rounds again.

    Returns
    -------
    int array (n - 1, 2)
        Merge k joins the clusters in slots pairs[k, 0] < pairs[k, 1];
        merges are stably sorted by height, as scipy sorts them.
    """
    n = len(X)
    D = _distances(X)
    # slot x's distance to slot i < x is D[x - 1 + col[i]]; to slots
    # x + 1, ..., n - 1 it is the run of D from run[x] on
    ids = np.arange(n)
    run = ids * n - ids * (ids + 1) // 2
    col = run - ids

    def gather(x, out):
        D[x - 1 :].take(col[:x], out=out[:x], mode="clip")
        out[x] = np.inf
        out[x + 1 :] = D[run[x] : run[x] + n - x - 1]

    def scatter(x, values):
        D[x - 1 :].put(col[:x], values[:x], mode="clip")
        D[run[x] : run[x] + n - x - 1] = values[x + 1 :]

    pairs = np.empty((n - 1, 2), dtype=np.intp)
    heights = np.empty(n - 1, dtype=np.float32)
    # the rows of the chain's tip and of the element below it, which is
    # current when no merge came after the tip was pushed
    tip, below, current = np.empty(n, np.float32), np.empty(n, np.float32), False
    chain, dead, low = [], np.zeros(n, dtype=bool), 0
    for k in range(n - 1):
        if not chain:
            while dead[low]:
                low += 1
            chain.append(low)
        while True:
            x = chain[-1]
            gather(x, tip)
            y = int(tip.argmin())
            if len(chain) > 1 and tip[chain[-2]] == tip[y]:
                y = chain[-2]
                break
            chain.append(y)
            tip, below, current = below, tip, True
        del chain[-2:]
        a, b = (x, y) if x < y else (y, x)
        pairs[k] = a, b
        heights[k] = tip[y]
        if not current:
            gather(y, below)
        scatter(b, np.maximum(tip, below, out=tip))
        tip.fill(np.inf)
        scatter(a, tip)
        dead[a] = True
        current = False
    return pairs[np.argsort(heights, kind="stable")]


def _centroids(X, pairs, M):
    """M start nodes from the cloud X and its merge list pairs (_complete_linkage).

    Cutting the merges into M clusters, the nodes are the component-wise
    means of the clusters, in the order of their smallest sample indices.
    """
    labels = _cut_labels(pairs, M)
    return np.array([X[labels == c].mean(axis=0) for c in range(M)])


def _cut_labels(pairs, M):
    """Cluster of each sample after the first n - M merges of a linkage.

    Clusters are numbered by their smallest member, which is cut_tree's
    numbering whenever the merge heights are distinct. Merge k moves the
    cluster of slot pairs[k, 0] into the higher slot pairs[k, 1], and no
    slot is emptied twice, so up[x] = y over the merges is a forest whose
    roots pointer doubling finds.
    """
    n = len(pairs) + 1
    up = np.arange(n)
    up[pairs[: n - M, 0]] = pairs[: n - M, 1]
    while not np.array_equal(up, up[up]):
        up = up[up]
    _, first, root = np.unique(up, return_index=True, return_inverse=True)
    return np.searchsorted(np.sort(first), first)[root]


@_one_blas_thread()
def adaptive_rule(basis, gm, cfg, on_accept=None):
    """Full node-count adaptation: init, increase until converged, prune.

    The node counts of the increase phase form the ladder M0, ceil(1.5 M0),
    ..., with M0 = ceil(N_2p / (d + 1)) balancing unknown count M (d + 1)
    against the N_2p exactness equations. Step 1 picks the first rung. For
    d = 1 it is M0 = order // 2 + 1, and the start is the Gauss rule's nodes
    (_gauss_nodes). For d >= 2 it skips the rungs whose outcome is known:

    (a) Every rung with M < N_k = binom(d + k, d), k = order // 2, by proof.
        A rule exact through degree 2k has the N_k x N_k Gram matrix
        G[a, b] = sum_j w_j Psi_a(x_j) Psi_b(x_j) = I, but G has rank <= M.
        For any rule G - I = T r, with T[a, b, c] = E[Psi_a Psi_b Psi_c]
        (a, b < N_k, c < N_2p) and r the residual, so such a rung ends with
        ||r|| >= 1 / sigma_max(T), T read as an (N_k^2, N_2p) matrix: 0.38,
        0.15 and 0.054 on gm4 at p = 1, 2, 3, and 0.33 and 0.12 on gm6 at
        p = 1, 2. The skip is exact for every residual_tol below that bound.
    (b) The M0 rung at even orders >= 2, where M0 >= N_k can hold (gm6 at
        p = 2, gm4 and gm6 at p = 3), by evidence: it ran out of outer
        iterations on every such input tried, builtin and random mixtures
        with d = 2 ... 6 and p = 2 ... 4. At odd orders and order 0 the M0
        rung can converge (one node at order <= 1, four in d = 2 at
        order 3), so it is kept there.

    The ladder itself does not move, so wherever the skipped rungs fail the
    later starts and the rule are those of solving every rung. Step 2
    multiplies M by INCREASE_FACTOR until bcd_solve converges, aborting past
    cap = CLOUD_FACTOR * N_2p nodes. Each start cuts the complete linkage of
    one seeded cloud of cap samples, built once, into M clusters and takes
    their means (_centroids). Step 3 repeatedly deletes one node and
    re-solves warm-started from the remaining nodes, accepting while the
    tolerance holds. The deleted node is the minimum-weight node (ties:
    lowest index). The whole call, like bcd_solve, runs with the bundled
    OpenBLAS at one thread (basis._one_blas_thread).

    on_accept, when given, is called with every accepted (converged) rule in
    order, which exposes the decrease-phase trajectory for verification.

    Raises
    ------
    IncreasePhaseError
        If the increase phase exceeds cap nodes without converging; it
        carries the residual of one NNLS over the whole candidate cloud.
    """
    N2p = basis.size
    d = gm.dim
    cap = CLOUD_FACTOR * N2p
    M = ceil(N2p / (d + 1))
    if d > 1:
        if basis.order > 0 and basis.order % 2 == 0:
            M = ceil(INCREASE_FACTOR * M)
        while M < comb(d + basis.order // 2, d):
            M = ceil(INCREASE_FACTOR * M)
    X = sample(gm, cap, cfg.seed)
    pairs = _complete_linkage(X)
    start = _gauss_nodes(basis, gm) if d == 1 else _centroids(X, pairs, M)
    while True:
        rule = bcd_solve(basis, start, cfg)
        if rule.converged:
            break
        M = ceil(INCREASE_FACTOR * M)
        if M > cap:
            phi = assemble_phi(basis, X)
            _, best = residual(phi, solve_weights(phi)[0])
            raise IncreasePhaseError(M, cap, rule.residual_norm, best, cfg.residual_tol)
        start = _centroids(X, pairs, M)
    if on_accept is not None:
        on_accept(rule)
    while rule.n_nodes > 1:
        trial_nodes = np.delete(rule.nodes, int(np.argmin(rule.weights)), axis=0)
        trial = bcd_solve(basis, trial_nodes, cfg)
        if not trial.converged:
            break
        rule = trial
        if on_accept is not None:
            on_accept(rule)
    return rule


def _gauss_nodes(basis, gm):
    """Nodes of the (order // 2 + 1)-point Gauss rule of a 1-d mixture.

    With Psi_a = sum_i C[a, i] x^i orthonormal, the Jacobi matrix is
    J[a, b] = E[x Psi_a Psi_b] = (C H1 C^T)[a, b], H1[i, j] = m_{i+j+1}, for
    a, b < n; its eigenvalues are the n Gauss nodes (Golub & Welsch 1969).
    Returned as an (n, 1) array.
    """
    n = basis.order // 2 + 1
    m = raw_moments(gm, 2 * n - 1).array
    C = basis.coeff_matrix[:n, :n]
    H1 = m[1:][np.add.outer(np.arange(n), np.arange(n))]
    return np.linalg.eigvalsh(C @ H1 @ C.T)[:, None]


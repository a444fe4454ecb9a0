"""Solve the first-order linear system for parallel sections of the
endomorphism bundle and of the bilinear-form bundles.

There is one equation. An endomorphism field phi intertwines a
connection with a target connection when

    d_i P = Gamma_i P - P Gamma*_i          (P = matrix of phi).

A bilinear form q, read as a map E -> E*, is parallel exactly when it
intertwines the connection with its conjugate on E*, whose
coefficients are -Gamma_i^T (the dual connection of the identity
metric): the same equation, d_i Q = Gamma_i Q + Q Gamma_i^T. A form
solve is the hom solve into the conjugate, restricted to the symmetric
or antisymmetric matrices.

The equation is a linear connection on a finite-dimensional fibre, so
the space of global solutions on a box chart is finite dimensional and
every solution value at the base point is annihilated by the curvature
of the induced connection and by all of its covariant derivatives. The
solver therefore runs two independent mechanisms:

1. Infinitesimal: intersect the kernels of the induced curvature
   operators and their covariant derivatives at the base point until the
   dimension stabilises (prolongation; Kobayashi & Nomizu I, II.10).
   One recursion per connection,

       B -> d_l B - [Gamma_l, B]     (starting from the curvature R_ij),

   generates each new order. Order k needs only the (k + 1)-jet of
   Gamma at the base point, so one walk of both connections' expression
   DAGs in truncated Taylor arithmetic (`expr.taylor`) gives exact
   derivatives, and the recursion runs on the coefficient arrays: d_l
   shifts coefficients and products are truncated Cauchy products. No
   discretisation error enters the constraints, and no expression is
   built; the generators B of conn pair with those B* of its target
   into P -> B P - P B*. Every solver reads one problem,
   a `Prolongation` of conn, its target and the options: one grid, one
   base node, each order computed once with one operator matrix per
   generator, and one grid transporter per RK4 step count, which lives
   as long as the problem. Each solve restricts those operators to its
   own subspace.
   An analysis solves hom, S2 and Omega2 on one problem whose target is
   the conjugate; every kind cuts its own candidate subspace with its
   own scale and stops on its own.

2. Transport: extend every stabilised candidate over the sample grid
   through the spanning tree and measure the mismatch on the redundant
   edges. Directions whose mismatch exceeds the transport tolerance are
   discarded. The two mechanisms have independent tolerances so that an
   algebraic bug cannot silently compensate an integration bug. Solves
   that discard a stabilised direction extend the discarded ones again
   at twice the RK4 steps (step doubling, Hairer, Norsett & Wanner,
   Solving ODEs I, II.4): a mismatch that shrinks is truncation, not
   holonomy, and flags the space `transport-under-resolved`.

The retained dimension is a certified lower bound for the true solution
dimension, and an upper bound as well once the kernel intersection has
stabilised. The test suite checks the returned bases a third way, by
substituting them into the equation with finite-difference derivatives.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import expr as ex
from .bundle import ChartDomain, Connection
from .transport import (
    DEFAULT_STEPS_PER_SEGMENT,
    MIN_STEPS_PER_SEGMENT,
    Grid,
    GridTransporter,
    _intertwining_operator,
)

__all__ = [
    "UNDER_RESOLVED",
    "SolveOptions",
    "SolutionSpace",
    "stabilized_constraint_subspace",
    "Prolongation",
    "solve_hom",
    "solve_parallel_forms",
    "symmetric_basis",
    "antisymmetric_basis",
    "nullspace",
]

UNDER_RESOLVED = "transport-under-resolved"
TRUNCATION_SHRINK = 2.0  # per step doubling: RK4 truncation shrinks 16x, holonomy 1x
GENERATOR_DROP_REL = 1e-9


class SolveOptions:
    """Knobs shared by the solvers, and the one carrier of the kernel and
    transport tolerances; defaults match the shipped tolerances.

    Frozen, compared and hashed by value: assigning or deleting a field
    raises AttributeError, and a variant comes from replace(), which
    checks it as construction does."""

    def __init__(
        self,
        grid_per_axis: int | None = None,
        steps_per_segment: int = DEFAULT_STEPS_PER_SEGMENT,
        max_order: int = 3,
        kernel_cutoff: float = 1e-8,
        transport_tol: float = 1e-7,
        seed: int = 0,
    ):
        if steps_per_segment < MIN_STEPS_PER_SEGMENT:
            raise ValueError(f"steps_per_segment must be >= {MIN_STEPS_PER_SEGMENT}")
        if max_order < 0:
            raise ValueError("max_order must be >= 0")
        for name, value in (("kernel_cutoff", kernel_cutoff), ("transport_tol", transport_tol)):
            if not 0.0 < value < float("inf"):  # NaN fails both
                raise ValueError(f"{name} must be positive and finite")
        # the fields, in order: written past __setattr__, read by every method below
        self.__dict__.update(
            grid_per_axis=grid_per_axis,
            steps_per_segment=steps_per_segment,
            max_order=max_order,
            kernel_cutoff=kernel_cutoff,
            transport_tol=transport_tol,
            seed=seed,
        )

    def replace(self, **changes) -> SolveOptions:
        """These options with the named fields changed, checked anew."""
        return SolveOptions(**{**self.__dict__, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of frozen SolveOptions")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen SolveOptions")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"SolveOptions({fields})"

    def grid_counts(self, domain: ChartDomain) -> tuple[int, ...]:
        if self.grid_per_axis is None:
            return domain.samples_per_axis
        return (self.grid_per_axis,) * domain.m


class SolutionSpace:
    """Certified basis of parallel sections, with grid extensions."""

    def __init__(
        self,
        base_point: tuple,
        basis: np.ndarray,
        dimension: int,
        certified_residual: float,
        stabilized: bool,
        stabilization_order: int,
        constraint_dim: int,
        grid: Grid | None,
        extensions: np.ndarray,
        flags: tuple[str, ...] = (),
    ):
        self.base_point = base_point
        self.basis = basis  # (dimension, r, r)
        self.dimension = dimension
        self.certified_residual = certified_residual
        self.stabilized = stabilized
        self.stabilization_order = stabilization_order
        self.constraint_dim = constraint_dim  # dimension of the infinitesimal candidate space
        self.grid = grid
        self.extensions = extensions  # (dimension, n_nodes, r, r)
        self.flags = flags

    def contains(self, matrix: np.ndarray, tol: float = 1e-8) -> bool:
        """Whether a matrix lies in the span of the basis (Frobenius)."""
        v = np.asarray(matrix, float).reshape(-1)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        if self.dimension == 0:
            return False
        b = self.basis.reshape(self.dimension, -1)
        coeff = b @ v
        return bool(np.linalg.norm(v - b.T @ coeff) <= tol * nv)


def _pair_basis(r: int, sign: float) -> np.ndarray:
    """Rows vec(E_ij + sign E_ji) / sqrt(2) for i < j, in (i, j) order."""
    rows = np.zeros((r * (r - 1) // 2, r, r))
    for k, (i, j) in enumerate(itertools.combinations(range(r), 2)):
        rows[k, i, j], rows[k, j, i] = 1.0 / np.sqrt(2.0), sign / np.sqrt(2.0)
    return rows.reshape(-1, r * r)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def symmetric_basis(r: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of symmetric matrices, rows = vec:
    the diagonal units, then the off-diagonal pairs. Built once per
    rank, read-only."""
    return _read_only(np.vstack([np.eye(r * r)[:: r + 1], _pair_basis(r, 1.0)]))


@lru_cache(maxsize=None)
def antisymmetric_basis(r: int) -> np.ndarray:
    """The off-diagonal pairs E_ij - E_ji, rows = vec; (0, 1) for r = 1.
    Built once per rank, read-only."""
    return _read_only(_pair_basis(r, -1.0))


NULLSPACE_NOISE_FLOOR = 1e-10


def nullspace(matrix: np.ndarray, rel_cutoff: float) -> np.ndarray:
    """Orthonormal rows spanning the numerical kernel of matrix.

    Rows are expected to be normalised to unit scale; singular values
    below an absolute noise floor never count towards the rank, so a
    constraint block that vanishes identically (up to evaluation
    roundoff) cannot masquerade as a genuine restriction.
    """
    rows, cols = matrix.shape
    if rows == 0:
        return np.eye(cols)
    u, s, vt = np.linalg.svd(matrix)
    if s.size == 0 or s[0] <= NULLSPACE_NOISE_FLOOR:
        return np.eye(cols)
    cutoff = max(rel_cutoff * s[0], NULLSPACE_NOISE_FLOOR)
    rank = int((s > cutoff).sum())
    return vt[rank:]


@lru_cache(maxsize=None)
def _axis_pairs(m: int) -> tuple:
    """The axis pairs i < j of the curvature R_ij, as two index arrays."""
    return np.triu_indices(m, 1)


def _order_values(problem: "Prolongation", order: int) -> np.ndarray:
    """Order `order` of the two recursions at the base point, (2, n, r, r):
    conn's n generators B, then the target's B*, the constant terms of
    the recursion run on the Taylor coefficients of degree order + 1 of
    both connections. A non-finite order raises DomainError: at the
    origin `taylor` gives the first root whose jet is not finite, else,
    when every jet is finite, at the root with the largest coefficient."""
    conn, dual = problem.conn, problem.dual
    m, r = conn.domain.m, conn.r
    if m == 1:  # a one-dimensional chart has no curvature
        return np.zeros((2, 0, r, r))
    roots = [*conn.gamma.flat, *dual.gamma.flat]
    degree = order + 1
    coeffs, origins = ex.taylor(roots, problem.x0, degree)
    gamma = coeffs.reshape(-1, 2, m, r, r)
    # R_ij = d_i Gamma_j - d_j Gamma_i + [Gamma_j, Gamma_i] for i < j
    i, j = _axis_pairs(m)
    grad = ex.taylor_basis(m, degree).derivatives(gamma)  # grad[l, :, :, k] = d_l Gamma_k
    basis = ex.taylor_basis(m, degree - 1)
    g_l = gamma[:, :, None]
    with np.errstate(all="ignore"):  # a non-finite order is named below
        gens = np.moveaxis(grad[i, :, :, j] - grad[j, :, :, i], 0, 2)
        gj, gi = gamma[:, :, j], gamma[:, :, i]
        gens += basis.product(gj, gi, np.matmul) - basis.product(gi, gj, np.matmul)
        for _ in range(order):
            # every generator along every axis l, generator-major
            lower = ex.taylor_basis(m, basis.degree - 1)
            b = gens[:, :, :, None]
            gens = np.moveaxis(basis.derivatives(gens), 0, 3)
            gens -= lower.product(g_l, b, np.matmul) - lower.product(b, g_l, np.matmul)
            gens = gens.reshape(gens.shape[:2] + (-1, r, r))
            basis = lower
    values = gens[0]
    if not np.isfinite(values).all():
        finite = np.isfinite(coeffs).all(axis=0)
        if finite.all():  # Gamma's jets are finite; their products overflow
            largest = roots[int(np.abs(coeffs).max(axis=0).argmax())]
            raise ex.DomainError(
                f"prolongation order {order} overflows", largest, problem.x0.tolist()
            )
        raise ex.DomainError(
            f"prolongation order {order} needs a derivative that is not finite",
            origins[int(finite.argmin())],
            problem.x0.tolist(),
        )
    return values


def _constraint_rows(operators, magnitudes, subspace: np.ndarray, scale_ref: float):
    """The rows of one order's constraint operators restricted to the
    candidate subspace, each generator's block normalised by its
    magnitude, leaving out generators that vanish against the largest
    magnitude before them; returns (rows, the new scale_ref)."""
    ceiling = np.maximum.accumulate(np.concatenate(([scale_ref], magnitudes)))
    kept = magnitudes > GENERATOR_DROP_REL * ceiling[:-1]
    rows = (operators[kept] @ subspace.T) / magnitudes[kept, None, None]
    return rows.reshape(len(rows) * len(subspace.T), len(subspace)), ceiling[-1]


class Prolongation:
    """One problem: the intertwiner equation from conn into the target
    `dual` under `options`, and what every solve of it shares: the grid,
    the base node, the constraint operators and the generators'
    magnitudes, and the grid transporters.

    Each order is computed when a solve first reaches it, once, from
    Taylor coefficients of degree order + 1, and its operators and
    magnitudes are kept for the solves after it, so no order or degree
    past the last solve's stop is computed. Each generator's operator P -> B P - P B* is built once,
    with its order, and every solve restricts it to its own subspace.
    The transporters, one per step count, live as long as the problem
    does.
    """

    def __init__(self, conn: Connection, dual: Connection, options: SolveOptions = SolveOptions()):
        self.conn, self.dual, self.options = conn, dual, options
        self.grid = Grid(conn.domain, options.grid_counts(conn.domain))
        self.base_index = self.grid.nearest_node(conn.domain.center())
        self.x0 = self.grid.nodes[self.base_index]
        self.transporters: dict[int, GridTransporter] = {}
        self._orders: list[tuple] = []

    def constraints(self):
        """Order by order from order zero: the operators P -> B P - P B*
        of the generators on row-major P, (n, r*r, r*r), and their
        magnitudes max |B|, |B*|."""
        for order in itertools.count():
            if order == len(self._orders):
                if order > self.options.max_order:
                    return
                values = _order_values(self, order)
                operators = _intertwining_operator(values[0], values[1])
                self._orders.append((operators, np.abs(values).max(axis=(0, 2, 3))))
            yield self._orders[order]


def get_transporter(problem: Prolongation, steps: int) -> GridTransporter:
    """The analysis's transporter between conn and the target at `steps`
    RK4 steps per edge, built the first time a solve needs it."""
    transporter = problem.transporters.get(steps)
    if transporter is None:
        transporter = problem.transporters[steps] = GridTransporter(
            problem.conn, problem.dual, problem.grid, problem.base_index, steps
        )
    return transporter


def stabilized_constraint_subspace(problem: Prolongation, subspace: np.ndarray | None = None):
    """Intersect kernels of the induced curvature and its covariant
    derivatives at the problem's base node, order by order, until two
    consecutive dimensions agree.

    The constraints are P -> B P - P B*, read from the problem's
    evaluated orders; its options give the deepest order and the kernel
    cutoff.

    Returns (candidates, stabilized, order): candidates has orthonormal
    rows in flattened-matrix coordinates, all inside `subspace` when one
    is given. Every genuine solution's value at x0 lies in the span.
    `order` is the first order whose constraints added nothing (0 when
    the curvature constraints alone already close the intersection).
    """
    if subspace is None:
        subspace = np.eye(problem.conn.r**2)
    blocks: list[np.ndarray] = []
    scale_ref = 1.0
    dim_prev = subspace.shape[0]
    dims: list[int] = []
    stabilized = False
    for operators, magnitudes in problem.constraints():
        rows, scale_ref = _constraint_rows(operators, magnitudes, subspace, scale_ref)
        blocks.append(rows)
        kernel = nullspace(np.vstack(blocks), problem.options.kernel_cutoff)
        dims.append(kernel.shape[0])
        if kernel.shape[0] == dim_prev or kernel.shape[0] == 0:
            stabilized = True
            break
        dim_prev = kernel.shape[0]
    candidates = kernel @ subspace
    final_dim = dims[-1]
    # report the first order whose constraints already pinned the final
    # space (later orders added nothing)
    settle_order = next(k for k, d in enumerate(dims) if d == final_dim)
    return candidates, stabilized, settle_order if stabilized else problem.options.max_order


def _solve(problem: Prolongation, subspace: np.ndarray | None) -> SolutionSpace:
    """Prolong the problem on `subspace` (all matrices when None) at its
    base node and certify the candidates by transport over its grid. An
    empty candidate space stops after the kernel SVD that emptied it: it
    builds no transporter and certifies nothing."""
    r, grid, options = problem.conn.r, problem.grid, problem.options
    candidates, stabilized, order = stabilized_constraint_subspace(problem, subspace)
    flags: list[str] = []
    if not stabilized:
        flags.append("stabilization-not-reached:lower-bound-only")
    k = candidates.shape[0]
    basis_vecs = np.zeros((0, r * r))
    extensions = np.zeros((0, len(grid.nodes), r * r))
    residual = 0.0
    if k:
        transporter = get_transporter(problem, options.steps_per_segment)
        fields = transporter.extend(candidates)  # (k, N, r*r)
        disc = transporter.discrepancies(fields).reshape(k, -1)  # (k, E*d)
        if disc.shape[1] == 0:
            coeffs = np.eye(k)
            residuals = np.zeros(k)
        else:
            _, _, vt = np.linalg.svd(disc.T, full_matrices=False)
            # rows of vt: coefficient directions in the candidate space, by
            # decreasing discrepancy; walk them in reverse so the most
            # solution-like direction comes first.
            coeffs = vt[::-1]
            residuals = np.abs(coeffs @ disc).max(axis=1)
        keep = residuals <= options.transport_tol
        kept_coeffs = coeffs[keep]
        kept_residuals = residuals[keep]
        if stabilized and not keep.all():
            flags.append("transport-rejected-stabilized-directions")
            fine = get_transporter(problem, 2 * options.steps_per_segment)
            rejected = coeffs[~keep] @ candidates
            fine_disc = fine.discrepancies(fine.extend(rejected)).reshape(len(rejected), -1)
            if np.any(TRUNCATION_SHRINK * np.abs(fine_disc).max(axis=1) < residuals[~keep]):
                flags.append(UNDER_RESOLVED)
        # deterministic ordering: by residual, then lexicographic; canonical
        # sign: the first entry above 1e-9 in magnitude is positive
        if kept_coeffs.shape[0] > 0:
            order_idx = np.lexsort(
                tuple(kept_coeffs[:, c] for c in range(kept_coeffs.shape[1] - 1, -1, -1))
                + (kept_residuals,)
            )
            kept_coeffs = kept_coeffs[order_idx]
            kept_residuals = kept_residuals[order_idx]
            first = np.argmax(np.abs(kept_coeffs) > 1e-9, 1)
            lead = kept_coeffs[np.arange(len(kept_coeffs)), first]
            kept_coeffs = np.where(lead < 0, -1.0, 1.0)[:, None] * kept_coeffs
            residual = float(kept_residuals.max())
        basis_vecs = kept_coeffs @ candidates
        extensions = np.tensordot(kept_coeffs, fields, axes=(1, 0))
    dim = basis_vecs.shape[0]
    return SolutionSpace(
        base_point=tuple(problem.x0),
        basis=basis_vecs.reshape(dim, r, r),
        dimension=dim,
        certified_residual=residual,
        stabilized=stabilized,
        stabilization_order=order,
        constraint_dim=k,
        grid=grid,
        extensions=extensions.reshape(dim, len(grid.nodes), r, r),
        flags=tuple(flags),
    )


def solve_hom(problem: Prolongation) -> SolutionSpace:
    """Certified basis of endomorphism fields intertwining the problem's
    connection with its target."""
    return _solve(problem, None)


def solve_parallel_forms(problem: Prolongation, symmetry: str) -> SolutionSpace:
    """Certified basis of the problem's symmetric or antisymmetric
    intertwiners: the parallel forms of its connection when the target
    is `conjugate_connection(conn)`."""
    if symmetry not in ("symmetric", "antisymmetric"):
        raise ValueError("symmetry must be 'symmetric' or 'antisymmetric'")
    basis = symmetric_basis if symmetry == "symmetric" else antisymmetric_basis
    return _solve(problem, basis(problem.conn.r))

"""Parallel transport over the sample grid.

Transport is classical fourth-order Runge-Kutta with a fixed, uniform
number of steps per segment (no adaptive stepping, so repeated runs are
bit-for-bit reproducible). Every fibre is transported by one equation,

    P' = Gamma_u P - P Gamma*_u,

the intertwiner equation between a connection Gamma (rows) and a
target connection Gamma* (columns), with Gamma_u = sum_i u_i Gamma_i
along the segment's tangent u. A fibre is named by the two connections
on either side of it: endomorphisms are (conn | target); bilinear
forms, read as maps E -> E*, are (conn | conjugate), the conjugate
having coefficients -Gamma_i^T (the dual connection of the identity
metric); vectors, as 1 x r rows, are (trivial line | conn), the trivial
line being the rank-1 zero connection.

The equation is linear, so one RK4 step multiplies the flattened state
(row-major vec) by a step matrix, a polynomial in h M with
M = Gamma_u (x) I - I (x) Gamma*_u^T at the step's three nodes (Hairer,
Norsett & Wanner, Solving ODEs I, II.1). `flow_operators` builds the
step matrices of a whole batch of segments at once and multiplies them
pairwise, in ceil(log2 s) levels of batched products, into each
segment's flow operator; no Python loop runs over the steps. The
coefficients of both connections come from one evaluator over the
union of their expression DAGs at the 2s+1 nodes of a chunk of
segments per vectorised call, so a conjugate target costs only its
negations. A value whose right-hand side vanishes along a segment is
transported exactly, and an operator that is not finite raises
FloatingPointError.

Each distinct operator is built once. A generator changes only along
the coordinates that some coefficient reads, so segments that agree
there, in their start and in their direction, share one operator; and
a segment whose direction has no component along those coordinates
has a constant generator, whose s step matrices are all one matrix:
its s-th power by repeated squaring (`np.linalg.matrix_power`), which
for s >= 4 associates the factors as the pairwise products do, so it
gives the same bits.
Both rules skip only points that differ from evaluated ones in
coordinates no coefficient reads, and products equal to ones taken, so
every operator is bitwise the one that step-by-step integration of its
own segment gives.

A section is parallel exactly when it is constant under this
transport, so disagreement between alternative grid routes measures
the failure of a candidate to solve the underlying first-order system.
A value reaches every grid node along a lattice path from the base
node that runs along axis 0 first, then axis 1, and so on; every other
grid edge is a route checked against it.
"""
from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .bundle import ChartDomain, Connection, count_error

__all__ = [
    "Grid",
    "GridTransporter",
]

MIN_STEPS_PER_SEGMENT = 8
DEFAULT_STEPS_PER_SEGMENT = 32
MIN_GRID_PER_AXIS = 3
# An analysis builds every node of the grid and transports along each
# edge; 3^9 = 19,683 keeps dim 9 reachable
MAX_GRID_NODES = 20_000
# Coefficients are evaluated for this many points per vectorised call:
# enough to amortise the per-node interpreter cost, small enough that
# the temporaries of large expression trees stay out of the peak memory.
POINTS_PER_EVALUATION = 1024
# Step matrices are built and composed for as many segments at a time as
# keep their d x d generators at the nodes within this many entries.
MATRIX_ENTRIES_PER_BATCH = 2**14


def _generator_nodes(evaluate, r1: int, r2: int, starts, u, nodes):
    """Gamma_u of conn and of dual, (n, t, r1, r1) and (n, t, r2, r2),
    at the t Runge-Kutta nodes (fractions of the segment) of the
    segments starts[e] -> starts[e] + u[e], from one call of the
    evaluator of both connections' coefficients (dual's, then conn's,
    axis by axis)."""
    values = evaluate(starts[:, None, :] + nodes[:, None] * u[:, None, :])
    values = values.reshape(values.shape[:2] + (u.shape[1], -1))
    up = u[:, None, :, None]
    gu = up[:, :, 0] * values[:, :, 0]
    for i in range(1, u.shape[1]):
        gu += up[:, :, i] * values[:, :, i]
    n, t = gu.shape[:2]
    return gu[..., r2 * r2 :].reshape(n, t, r1, r1), gu[..., : r2 * r2].reshape(n, t, r2, r2)


def _plus_identity(x: np.ndarray) -> np.ndarray:
    """x + I, in place, for a stack (..., d, d) that owns its data."""
    x.reshape(x.shape[:-2] + (-1,))[..., :: x.shape[-1] + 1] += 1.0
    return x


def _intertwining_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrices M = A (x) I - I (x) B^T of Y -> A Y - Y B on the
    row-major vec, for stacks (..., r1, r1) and (..., r2, r2) ->
    (..., r1 r2, r1 r2), written by strided assignment."""
    r1, r2 = a.shape[-1], b.shape[-1]
    gen = np.zeros(a.shape[:-2] + (r1, r2, r1, r2))
    for j in range(r2):
        gen[..., :, j, :, j] = a
    bt = b.swapaxes(-1, -2)
    for i in range(r1):
        gen[..., i, :, i, :] -= bt
    return gen.reshape(a.shape[:-2] + (r1 * r2, r1 * r2))


def _step_matrices(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step matrices T_k of Y' = A Y - Y B from the generators at
    the 2s+1 nodes, (n, 2s+1, ...) -> (n, s, d, d). With M the
    intertwining operator at the nodes 2k, 2k+1, 2k+2:

        K2 = M2 (I + h/2 M1),  K3 = M2 (I + h/2 K2),  K4 = M3 (I + h K3),
        T_k = I + h/6 (M1 + 2 K2 + 2 K3 + K4)."""
    gen = _intertwining_operator(a, b)
    m1, m2, m3 = gen[:, :-1:2], gen[:, 1::2], gen[:, 2::2]
    k = m2 @ _plus_identity((h / 2.0) * m1)
    step = m1 + 2.0 * k
    k = m2 @ _plus_identity((h / 2.0) * k)
    step += 2.0 * k
    step += m3 @ _plus_identity(h * k)
    step *= h / 6.0
    return _plus_identity(step)


def _compose(steps: np.ndarray) -> np.ndarray:
    """The products T_{s-1} ... T_1 T_0 of step matrices (n, s, d, d), in
    ceil(log2 s) levels of pairwise batched products (parallel prefix,
    Blelloch 1990); at a level with an odd count the last factor
    carries over to the next."""
    while steps.shape[1] > 1:
        half = steps.shape[1] // 2
        pairs = steps[:, 1 : 2 * half : 2] @ steps[:, : 2 * half : 2]
        carried = steps[:, 2 * half :]
        steps = np.concatenate((pairs, carried), axis=1) if carried.shape[1] else pairs
    return steps[:, 0]


def flow_operators(conn: Connection, dual: Connection, starts, ends, steps: int) -> np.ndarray:
    """Flow operators on the flattened fibre between conn and dual along
    every segment starts[e] -> ends[e]: (E, d, d), each the product of
    its s RK4 step matrices. Raises FloatingPointError when an operator
    is not finite, so that an overflowing transport is never certified.

    Each distinct flow operator is built once. Only the coordinates R
    that some coefficient of conn or dual reads (the OR of the entries'
    masks) can change a generator, so two rules skip work and leave
    every operator bitwise the same:
    1. segments that agree in their start's R-coordinates and in their
       direction u share one operator, built for the first of them;
    2. a segment whose u has no component along R has one generator at
       all its nodes: it is evaluated at its start only, and its s equal
       step matrices are one step matrix, raised to the power s by
       np.linalg.matrix_power, whose squarings from the least significant
       bit (result @ power) associate the product as _compose does for
       every s >= 4 (SolveOptions refuses fewer than 8 steps).
    The points skipped differ from evaluated ones only in coordinates
    that no entry reads. The segments built keep their first-occurrence
    order, so a DomainError names the same entry and point as a
    step-by-step evaluation of every segment would.

    One evaluator walks the union of the two connections' DAGs, so a
    conjugate dual costs only its negations. Segments are evaluated at
    most POINTS_PER_EVALUATION points (or one segment) at a time, and
    each such chunk's step matrices are built and composed in batches
    that hold at most MATRIX_ENTRIES_PER_BATCH entries (or one segment)
    at once."""
    starts = np.asarray(starts, dtype=float)
    u = np.asarray(ends, dtype=float) - starts
    m, r1, r2 = conn.domain.m, conn.r, dual.r
    entries = np.concatenate((dual.gamma.reshape(m, -1), conn.gamma.reshape(m, -1)), 1).ravel()
    evaluate = ex.Evaluator(entries)
    used = ex.variables(*entries)
    read = np.array([i + 1 in used for i in range(m)], dtype=bool)
    # rule 1: each segment takes the operator of the first segment whose
    # key (start on R, u) has the same bits; a stable sort of the keys
    # puts that segment first among them
    key = [starts[:, i] for i in np.flatnonzero(read)] + [u[:, i] for i in range(m)]
    key = [column.view(np.int64) for column in key]
    order = np.lexsort(key)
    fresh = np.zeros(len(order), dtype=bool)  # first of its key in sorted order
    fresh[:1] = True
    for column in key:
        column = column[order]
        fresh[1:] |= column[1:] != column[:-1]
    owner = np.empty_like(order)
    owner[order] = order[fresh][np.cumsum(fresh) - 1]
    built = np.flatnonzero(owner == np.arange(len(owner)))
    # rule 2: a generator that cannot change along u is read at the start
    moving = np.zeros(len(u), dtype=bool)
    for i in np.flatnonzero(read):
        moving |= u[:, i] != 0.0
    nodes = np.arange(2 * steps + 1) * (0.5 / steps)
    d = r1 * r2
    ops = np.empty((len(u), d, d))
    # runs of one kind in their order, so that the first point to leave
    # the real domain is still the first evaluated there
    runs = np.split(built, np.flatnonzero(np.diff(moving[built])) + 1) if len(built) else []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for run in runs:
            fixed = not moving[run[0]]
            at = nodes[:1] if fixed else nodes
            per_call = max(1, POINTS_PER_EVALUATION // len(at))
            # the d x d matrices a segment holds at once: its generators
            # at the 2s+1 nodes, or at the three equal nodes of a fixed one
            held = 3 if fixed else len(nodes)
            per_batch = max(1, MATRIX_ENTRIES_PER_BATCH // (held * d * d))
            for lo in range(0, len(run), per_call):
                part = run[lo : lo + per_call]
                a, b = _generator_nodes(evaluate, r1, r2, starts[part], u[part], at)
                if fixed:  # three equal nodes make the one step matrix
                    a, b = a.repeat(3, axis=1), b.repeat(3, axis=1)
                for sub in range(0, len(part), per_batch):
                    batch = slice(sub, sub + per_batch)
                    step = _step_matrices(a[batch], b[batch], 1.0 / steps)
                    if fixed:
                        ops[part[batch]] = np.linalg.matrix_power(step[:, 0], steps)
                    else:
                        ops[part[batch]] = _compose(step)
    shared = np.flatnonzero(owner != np.arange(len(owner)))
    ops[shared] = ops[owner[shared]]
    return _finite(ops)


def _finite(values: np.ndarray) -> np.ndarray:
    """values, or FloatingPointError when any of them is not finite."""
    if not np.isfinite(values).all():
        raise FloatingPointError("transport left the floating-point range")
    return values


def grid_error(counts) -> str | None:
    """The refusal of a transport grid of counts nodes per axis: fewer
    than MIN_GRID_PER_AXIS on an axis, or more than MAX_GRID_NODES in
    all, counted without building a node; None for a grid that passes."""
    refusals = (count_error("grid_per_axis", n, MIN_GRID_PER_AXIS) for n in counts)
    if refusal := next(filter(None, refusals), None):
        return refusal
    nodes = math.prod(map(int, counts))
    if nodes <= MAX_GRID_NODES:
        return None
    count = f"{nodes:,}" if nodes < 10**18 else f"about 10^{math.log10(nodes):.0f}"
    shape = " x ".join(map(str, counts))
    return f"{shape} = {count} grid nodes; at most {MAX_GRID_NODES:,} are allowed"


class Grid:
    """Sample grid as a graph: axis-aligned edges, lattice-path spanning tree.

    Nodes are the chart's interior sample points in lexicographic order,
    `multi` (N, m) their indices along the axes, and an edge joins a node
    to the next one along an axis. From a base node, the edge along axis
    a is a tree edge exactly when its ends agree with the base on every
    axis after a, and it points away from the base: tree paths run along
    axis 0 first, then axis 1, and so on. This is the breadth-first tree
    that scans neighbours axis by axis, +direction before -direction.
    Counts that grid_error refuses raise ValueError.
    """

    def __init__(self, domain: ChartDomain, counts: tuple[int, ...] | None = None):
        self.domain = domain
        self.counts = tuple(counts or domain.samples_per_axis)
        if refusal := grid_error(self.counts):
            raise ValueError(refusal)
        self.nodes = domain.sample_points(self.counts)
        self.multi = np.indices(self.counts).reshape(len(self.counts), -1).T

    def nearest_node(self, point) -> int:
        d = np.abs(self.nodes - np.asarray(point, float)).sum(axis=1)
        return int(np.argmin(d))

    @property
    def edges(self) -> list[tuple[int, int]]:
        """(node, next node along an axis), node-major and then by axis."""
        start, axis = np.nonzero(self.multi + 1 < self.counts)
        stride = np.cumprod((1,) + self.counts[:0:-1])[::-1]
        return list(zip(start.tolist(), (start + stride[axis]).tolist()))

    def spanning_tree(self, root: int):
        """(tree_edges parent -> child, each parent the root or an earlier
        child; non_tree_edges in `edges` order)."""
        ends = np.array(self.edges)
        base, start = self.multi[root], self.multi[ends[:, 0]]
        axis = (self.multi[ends[:, 1]] != start).argmax(axis=1)
        after = np.arange(len(self.counts)) > axis[:, None]
        in_tree = ~((start != base) & after).any(axis=1)
        flip = self.multi[ends[:, 0], axis] < base[axis]  # the next node is the parent
        tree = np.where(flip[:, None], ends[:, ::-1], ends)[in_tree]
        depth = np.abs(self.multi[tree[:, 1]] - base).sum(axis=1)
        tree = tree[np.argsort(depth, kind="stable")]
        return list(map(tuple, tree.tolist())), list(map(tuple, ends[~in_tree].tolist()))


class GridTransporter:
    """Per-edge flow operators over a grid, shared by all candidates,
    on the fibre between conn and dual.

    extend() pushes base-point values through the spanning tree;
    discrepancies() stacks, for each non-tree edge, the difference
    between transporting along the edge and the value already assigned
    to the far node. For genuine solutions every column is numerically
    zero; the stacked map is therefore the certification operator for a
    candidate subspace.
    """

    def __init__(
        self,
        conn: Connection,
        dual: Connection,
        grid: Grid,
        base_index: int,
        steps_per_segment: int = DEFAULT_STEPS_PER_SEGMENT,
    ):
        self.grid = grid
        self.base_index = base_index
        self.steps = steps_per_segment
        self.tree_edges, self.non_tree_edges = grid.spanning_tree(base_index)
        ends = np.array(self.tree_edges + self.non_tree_edges)
        # operators of the tree edges, then of the non-tree edges: (E, d, d)
        self.operators = flow_operators(
            conn, dual, grid.nodes[ends[:, 0]], grid.nodes[ends[:, 1]], self.steps
        )
        self.fibre_dim = self.operators.shape[-1]

    def extend(self, values: np.ndarray) -> np.ndarray:
        """values: (k, fibre_dim) at the base node -> (k, N, fibre_dim);
        FloatingPointError when finite edge operators compose past the
        floating-point range along the tree."""
        values = np.atleast_2d(np.asarray(values, dtype=float))
        k = values.shape[0]
        fields = np.zeros((k, len(self.grid.nodes), self.fibre_dim))
        fields[:, self.base_index, :] = values
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for (u, v), op in zip(self.tree_edges, self.operators):
                fields[:, v, :] = fields[:, u, :] @ op.T
        return _finite(fields)

    def discrepancies(self, fields: np.ndarray) -> np.ndarray:
        """(k, n_non_tree_edges, fibre_dim) transport mismatches; raises
        FloatingPointError when one is not finite."""
        if not self.non_tree_edges:
            return np.zeros((fields.shape[0], 0, self.fibre_dim))
        src, dst = np.array(self.non_tree_edges).T
        ops = self.operators[len(self.tree_edges):]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            moved = fields[:, src, :].transpose(1, 0, 2) @ ops.transpose(0, 2, 1)
            return _finite(moved.transpose(1, 0, 2) - fields[:, dst, :])

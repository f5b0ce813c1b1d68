"""Exhaustive generation of all idempotent semirings of a given order.

The generator fills the + table first (the additive band), then the .
table, backtracking cell by cell.  Diagonal entries are pinned by
idempotency.  After a cell is set, only the associativity and
distributivity instances that look that cell up are checked: every other
determined instance was checked at the parent node, so this prunes
exactly the nodes a full re-check would, at O(n^2) instead of O(n^3) cost
per node.  Distributivity is the strongest cross-table constraint, which
is why the + table is completed before any . cell is chosen.

Up to isomorphism the generation is orderly (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): a band is completed only if
it is its own least relabelling, and a . table is kept only if no
automorphism of the band relabels it to a smaller table.  Both tests are
one early-exit comparison in key order, which also prunes partial . tables
(lex-leader pruning: Crawford, Ginsberg, Luks and Roy, KR 1996).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .core import (BudgetExceededError, PreconditionError, SemiringTable,
                   validate_semiring)
from .structure import ClassExpr, malcev_membership
from .varieties import VarietySpec, variety_membership

DEFAULT_NODE_BUDGET = 10 ** 7
DEFAULT_SECS_BUDGET = 1800.0


class _Budget:
    __slots__ = ("nodes_left", "deadline")

    def __init__(self, nodes: int, secs: float):
        self.nodes_left = nodes
        self.deadline = time.monotonic() + secs

    def spend(self) -> None:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise BudgetExceededError("node budget exhausted")
        # checking the clock on every node would dominate; sample it
        if self.nodes_left % 4096 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceededError("wall-clock budget exhausted")


@dataclass(frozen=True)
class EnumConfig:
    order: int
    up_to_iso: bool = False
    filter: Optional[Union[VarietySpec, ClassExpr]] = None
    max_count: Optional[int] = None
    budget_nodes: int = DEFAULT_NODE_BUDGET
    budget_secs: float = DEFAULT_SECS_BUDGET

    def __post_init__(self):
        if self.order < 1:
            raise PreconditionError("order must be >= 1")
        if not (self.budget_nodes > 0 and self.budget_secs > 0):  # rejects nan
            raise PreconditionError("budget must be positive")


def _assoc_ok(table: List[List[Optional[int]]], n: int, i: int, j: int) -> bool:
    """Every determined instance of (ab)c = a(bc) that looks up cell (i, j)
    holds.  These are the instances with (a, b) = (i, j), (b, c) = (i, j),
    ab = i and c = j, or a = i and bc = j; every other determined instance
    was already checked at the parent node."""
    v = table[i][j]
    row_i, row_v = table[i], table[v]
    for k in range(n):
        jk, ki = table[j][k], table[k][i]
        if jk is not None:  # (ij)k = i(jk)
            left, right = row_v[k], row_i[jk]
            if left is not None and right is not None and left != right:
                return False
        if ki is not None:  # (ki)j = k(ij)
            left, right = table[ki][j], table[k][v]
            if left is not None and right is not None and left != right:
                return False
        for m in range(n):
            if table[k][m] == i:  # (km)j = k(mj) with km = i
                mj = table[m][j]
                if mj is not None and table[k][mj] not in (None, v):
                    return False
            if table[m][k] == j:  # (im)k = i(mk) with mk = j
                im = row_i[m]
                if im is not None and table[im][k] not in (None, v):
                    return False
    return True


def _touching_sums(add: Sequence[Sequence[int]], n: int
                   ) -> List[List[Tuple[int, int, int]]]:
    """For each element e, the triples (y, z, y+z) with e among them."""
    return [[(y, z, add[y][z]) for y in range(n) for z in range(n)
             if e in (y, z, add[y][z])] for e in range(n)]


def _distrib_ok(add: Sequence[Sequence[int]],
                touching: List[List[Tuple[int, int, int]]],
                mul: List[List[Optional[int]]], i: int, j: int) -> bool:
    """Every determined instance of x(y+z) = xy+xz or (y+z)x = yx+zx that
    looks up . cell (i, j) holds: x = i with j among y, z, y+z on the
    left, x = j with i among them on the right."""
    row_i = mul[i]
    for y, z, s in touching[j]:
        xy, xz, whole = row_i[y], row_i[z], row_i[s]
        if None not in (xy, xz, whole) and whole != add[xy][xz]:
            return False
    for y, z, s in touching[i]:
        yx, zx, whole = mul[y][j], mul[z][j], mul[s][j]
        if None not in (yx, zx, whole) and whole != add[yx][zx]:
            return False
    return True


def _complete(table: List[List[Optional[int]]], n: int,
              cells: List[Tuple[int, int]], k: int,
              ok: Callable[[List[List[Optional[int]]], int, int], bool],
              budget: _Budget) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    if k == len(cells):
        yield tuple(tuple(row) for row in table)  # type: ignore[misc]
        return
    i, j = cells[k]
    for v in range(n):
        budget.spend()
        table[i][j] = v
        if ok(table, i, j):
            yield from _complete(table, n, cells, k + 1, ok, budget)
    table[i][j] = None


def _off_diagonal_cells(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _idempotent_seed(n: int) -> List[List[Optional[int]]]:
    return [[i if i == j else None for j in range(n)] for i in range(n)]


def _matches_filter(t: SemiringTable,
                    flt: Optional[Union[VarietySpec, ClassExpr]]) -> bool:
    if flt is None:
        return True
    if isinstance(flt, VarietySpec):
        return variety_membership(t, flt)
    return malcev_membership(t, flt)[0]


def _relabelled_cmp(rows: Sequence[Sequence[Optional[int]]],
                    perm: Sequence[int], inv: Sequence[int]) -> int:
    """Sign of perm.rows - rows, cell (a, b) of perm.rows being
    perm[rows[inv a][inv b]], over all cells in row-major order up to the
    first cell that is None on either side (0 if they agree there)."""
    for a, ia in enumerate(inv):
        row, src = rows[a], rows[ia]
        for b, ib in enumerate(inv):
            x, v = row[b], src[ib]
            if x is None or v is None:
                return 0
            if perm[v] != x:
                return -1 if perm[v] < x else 1
    return 0


def enumerate_idempotent_semirings(cfg: EnumConfig) -> Iterator[SemiringTable]:
    """Stream every idempotent semiring of the configured order.

    The stream is deterministic (depth-first, lexicographic cell order).
    With up_to_iso, exactly the canonical-minimal representative of each
    isomorphism class is yielded, in the order of the labelled stream:
    the canonical key of (B, M) is the least (s.B, s.M) over all
    relabellings s.  Its + part is the least relabelling of B, so (B, M)
    is canonical iff B is its own least relabelling and no s attaining it,
    that is no s in Aut(B), makes s.M smaller than M.  Bands that are not
    least are therefore skipped before any . cell is chosen.

    The . search prunes a node (partial M) when, for some p in Aut(B),
    p.M is smaller than M on a row-major prefix determined on both sides.
    Pruned subtrees hold no canonical table: each completion M' keeps the
    determined cells of M, hence of p.M (whose cell (a, b) reads only M's
    cell (inv a, inv b)), so p.(B, M') = (B, p.M') < (B, M').  At a leaf
    every cell is determined and the test is exactly "p.M < M" above, so
    the leaves kept are the canonical ones, in the same depth-first order;
    a leaf below a pruned node would fail it.  The labelled search skips it.

    Exceeding the budget raises BudgetExceededError mid-stream; consumers
    must treat a truncated stream as failure, never as a complete
    enumeration.
    """
    n, cells = cfg.order, _off_diagonal_cells(cfg.order)
    budget = _Budget(cfg.budget_nodes, cfg.budget_secs)
    # the identity, first, fixes every table
    perms = [(p, sorted(range(n), key=p.__getitem__))
             for p in itertools.permutations(range(n))][1:] if cfg.up_to_iso else []
    emitted = 0
    for add in _complete(_idempotent_seed(n), n, cells, 0,
                         lambda tab, i, j: _assoc_ok(tab, n, i, j), budget):
        if not all(_relabelled_cmp(add, p, q) >= 0 for p, q in perms):
            continue  # some relabelling of the band is smaller
        auts = [(p, q) for p, q in perms if _relabelled_cmp(add, p, q) == 0]
        touching = _touching_sums(add, n)

        def mul_ok(tab: List[List[Optional[int]]], i: int, j: int) -> bool:
            return _assoc_ok(tab, n, i, j) and _distrib_ok(add, touching, tab, i, j)

        def least_mul_ok(tab: List[List[Optional[int]]], i: int, j: int) -> bool:
            return mul_ok(tab, i, j) and all(_relabelled_cmp(tab, p, q) >= 0
                                             for p, q in auts)

        for mul in _complete(_idempotent_seed(n), n, cells, 0,
                             least_mul_ok if auts else mul_ok, budget):
            t = SemiringTable.from_rows(add, mul)
            if not _matches_filter(t, cfg.filter):
                continue
            yield t
            emitted += 1
            if cfg.max_count is not None and emitted >= cfg.max_count:
                return


def all_idempotent_semirings(order: int, up_to_iso: bool = False,
                             **kwargs) -> List[SemiringTable]:
    cfg = EnumConfig(order=order, up_to_iso=up_to_iso, **kwargs)
    return list(enumerate_idempotent_semirings(cfg))


# ---------------------------------------------------------------------------
# Naive oracle, kept deliberately independent of the backtracking search

def _idempotent_ops(n: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    cells = _off_diagonal_cells(n)
    for values in itertools.product(range(n), repeat=len(cells)):
        table = [[i if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, values):
            table[i][j] = v
        yield tuple(tuple(row) for row in table)


def naive_labeled_pairs(n: int) -> List[Tuple[Tuple[Tuple[int, ...], ...], ...]]:
    """The (add, mul) rows of every labeled idempotent semiring of order n,
    found by filtering every pair of idempotent associative tables through
    validate_semiring; itertools.product lists them in the generator's
    depth-first order.  Exponential; oracle use only."""
    def associative(op):
        return all(op[op[a][b]][c] == op[a][op[b][c]]
                   for a in range(n) for b in range(n) for c in range(n))

    bands = [op for op in _idempotent_ops(n) if associative(op)]
    return [(add, mul) for add in bands for mul in bands
            if validate_semiring(SemiringTable.from_rows(add, mul)).is_idempotent_semiring]


def naive_labeled_count(n: int) -> int:
    return len(naive_labeled_pairs(n))

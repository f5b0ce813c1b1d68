"""Exhaustive generation of all idempotent semirings of a given order.

The generator fills the + table first (the additive band), then the .
table, backtracking cell by cell.  Diagonal entries are pinned by
idempotency.  After a cell is set, only the associativity and
distributivity instances that look that cell up are checked: every other
determined instance was checked at the parent node, so this prunes
exactly the nodes a full re-check would, at O(n^2) instead of O(n^3) cost
per node.  An index of the cells holding each value finds the
associativity instances among them without scanning the table.
Distributivity is the strongest cross-table constraint, which
is why the + table is completed before any . cell is chosen.

Up to isomorphism the generation is orderly (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): a partial band is abandoned
as soon as some relabelling makes it smaller, so only the bands that are
their own least relabelling are completed, and a partial . table as soon
as some automorphism of the band makes it smaller.  Both tests are one
comparison in key order, resumed where the parent node's stopped
(lex-leader pruning: Crawford, Ginsberg, Luks and Roy, KR 1996).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .congruences import DEFAULT_ORDER_BOUND
from .core import (BudgetExceededError, PreconditionError, ResourceBoundError,
                   SemiringTable)
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
    budget_nodes: int = DEFAULT_NODE_BUDGET
    budget_secs: float = DEFAULT_SECS_BUDGET

    def __post_init__(self):
        if self.order < 1:
            raise PreconditionError("order must be >= 1")
        # checked before anything of size n! or n^2 is built
        if self.order > DEFAULT_ORDER_BOUND:
            raise ResourceBoundError("order %d exceeds enumeration bound %d"
                                     % (self.order, DEFAULT_ORDER_BOUND))
        if not (self.budget_nodes > 0 and self.budget_secs > 0):  # rejects nan
            raise PreconditionError("budget must be positive")


# a table being filled (None = undetermined), a full one, and the
# preimage index of a partial table: pre[v] = the determined cells of value v
_Partial = List[List[Optional[int]]]
Rows = Tuple[Tuple[int, ...], ...]
_Index = List[List[Tuple[int, int]]]


def _assoc_ok(table: _Partial, pre: _Index, i: int, j: int) -> bool:
    """Every determined instance of (ab)c = a(bc) that looks up cell (i, j)
    holds.  These are the instances with (a, b) = (i, j), (b, c) = (i, j),
    ab = i and c = j, or a = i and bc = j; every other determined instance
    was already checked at the parent node.  pre[v] lists the determined
    cells (k, m) with table[k][m] = v, so the last two kinds are read off
    pre[i] and pre[j] instead of a scan of all n^2 cells."""
    v = table[i][j]
    row_i, row_j, row_v = table[i], table[j], table[v]
    for k, row_k in enumerate(table):
        jk, ki = row_j[k], row_k[i]
        if jk is not None:  # (ij)k = i(jk)
            left, right = row_v[k], row_i[jk]
            if left is not None and right is not None and left != right:
                return False
        if ki is not None:  # (ki)j = k(ij)
            left, right = table[ki][j], row_k[v]
            if left is not None and right is not None and left != right:
                return False
    for k, m in pre[i]:  # (km)j = k(mj) with km = i
        mj = table[m][j]
        if mj is not None and table[k][mj] not in (None, v):
            return False
    for m, k in pre[j]:  # (im)k = i(mk) with mk = j
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
                mul: _Partial, i: int, j: int) -> bool:
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


_Check = Callable[[_Partial, _Index, int, int], bool]
# a relabelling as (perm, inverse)
Relabelling = Tuple[Sequence[int], Sequence[int]]


def _complete(n: int, ok: _Check, perms: List[Relabelling], budget: _Budget
              ) -> Iterator[Tuple[Rows, list]]:
    """Every idempotent n x n table that ok accepts cell by cell and no
    relabelling in perms makes smaller, depth first, each with the (p, q, c)
    of the p in perms that fix it.  The off-diagonal cells are filled in
    row-major order, each trying 0..n-1 in turn.  A value costs one budget
    node and is kept when ok(table, pre, i, j) holds for the cell (i, j)
    just set, pre[v] being the determined cells of value v, kept in step
    with the table, and then no p makes the table smaller on the prefix
    determined on both sides.  One loop walks the cells; the cell at depth
    k holds the value being tried there, None before the first.  ties[k]
    holds the (p, q, c), c <= k, with p.T = T on the cells before depth c,
    all determined on both sides; each resumes at c (proof in
    enumerate_idempotent_semirings)."""
    table: _Partial = [[i if i == j else None for j in range(n)] for i in range(n)]
    pre: _Index = [[(v, v)] for v in range(n)]
    cells = _off_diagonal_cells(n)
    last, k = len(cells) - 1, 0
    if last < 0:
        yield ((0,),), []
        return
    ties = [[(p, q, 0) for p, q in perms]] + [[]] * last
    while k >= 0:
        i, j = cells[k]
        v = table[i][j]
        if v is None:
            v = 0
        else:  # undo the value tried last, then try the next one
            pre[v].pop()
            v += 1
            if v == n:
                table[i][j] = None
                k -= 1
                continue
        budget.spend()
        table[i][j] = v
        pre[v].append((i, j))
        if not ok(table, pre, i, j):
            continue
        tied = ties[k]
        if tied:  # diagonal cells always tie: p[T[q a][q a]] = p[q a] = a
            kept = []
            for p, q, c in tied:
                while c <= k:
                    a, b = cells[c]
                    x = table[q[a]][q[b]]
                    if x is None or p[x] != table[a][b]:
                        break
                    c += 1
                else:
                    x = None
                if x is None:  # tied up to cell c, the first one undetermined
                    kept.append((p, q, c))
                elif p[x] < table[a][b]:  # p.T smaller: prune; larger: drop p
                    kept = None
                    break
            if kept is None:
                continue
            tied = kept
        if k == last:
            yield tuple(tuple(row) for row in table), tied  # type: ignore[misc]
        else:
            k += 1
            ties[k] = tied


def _off_diagonal_cells(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _matches_filter(t: SemiringTable,
                    flt: Optional[Union[VarietySpec, ClassExpr]]) -> bool:
    if flt is None:
        return True
    if isinstance(flt, VarietySpec):
        return variety_membership(t, flt)
    return malcev_membership(t, flt)[0]


def bands(n: int, up_to_iso: bool, budget: _Budget
          ) -> Iterator[Tuple[Rows, List[Relabelling]]]:
    """The + tables of order n, depth first, each with its non-identity
    automorphisms: every labelled band, with none listed, or with up_to_iso
    exactly the bands that are their own least relabelling (proof in
    enumerate_idempotent_semirings)."""
    # the identity, first, fixes every table
    perms = [(p, sorted(range(n), key=p.__getitem__))
             for p in itertools.permutations(range(n))][1:] if up_to_iso else []
    for add, auts in _complete(n, _assoc_ok, perms, budget):
        yield add, [(p, q) for p, q, _ in auts]


def completions(add: Rows, auts: List[Relabelling], budget: _Budget
                ) -> Iterator[Rows]:
    """The . tables making (add, .) an idempotent semiring, depth first;
    given the non-identity automorphisms auts of add, only those that no
    automorphism relabels smaller (proof in enumerate_idempotent_semirings)."""
    n = len(add)
    touching = _touching_sums(add, n)

    def mul_ok(tab: _Partial, pre: _Index, i: int, j: int) -> bool:
        return _assoc_ok(tab, pre, i, j) and _distrib_ok(add, touching, tab, i, j)

    return (mul for mul, _ in _complete(n, mul_ok, auts, budget))


def enumerate_idempotent_semirings(cfg: EnumConfig) -> Iterator[SemiringTable]:
    """Stream every idempotent semiring of the configured order.

    The stream is deterministic (depth-first, lexicographic cell order):
    each band B from bands(), then each . table M from completions(B).
    With up_to_iso, exactly the canonical-minimal representative of each
    isomorphism class is yielded, in the order of the labelled stream:
    the canonical key of (B, M) is the least (s.B, s.M) over all
    relabellings s.  Its + part is the least relabelling of B, so (B, M)
    is canonical iff B is its own least relabelling and no s attaining it,
    that is no s in Aut(B), makes s.M smaller than M.

    Both searches prune by one lemma.  Cells are filled in row-major order,
    which is the order tables are compared in, and cell (a, b) of p.T reads
    only T's cell (inv a, inv b).  So if p.T is smaller than T on a
    row-major prefix determined on both sides, every completion T' keeps
    those cells on both sides and p.T' < T'.  The band search prunes a
    node (partial B) when this holds for some non-identity p: every band
    below it has a smaller relabelling, so no least band is lost.  At a
    leaf every cell is determined and the test reads "no p.B < B", which
    is leastness itself; so the leaves kept are exactly the least bands,
    in the labelled search's order, and Aut(B) is the p with p.B = B.
    The . search prunes a node (partial M) when this holds for some p in
    Aut(B): each completion M' has p.(B, M') = (B, p.M') < (B, M').  Its
    leaf test is exactly "p.M < M" above, so the leaves kept are the
    canonical ones, in the same depth-first order.  The labelled search
    skips both tests.

    A node need not compare p.T with T from cell (0, 0) again: its parent
    stopped at the first cell c undetermined on either side, and setting
    more cells changes no cell before c, so a tie before c stays a tie and
    the comparison resumes at c.  A p.T larger on the determined prefix
    stays larger on every completion, by the lemma with the sides swapped,
    so that p can neither prune nor fix a leaf below and is dropped for the
    whole subtree.  The p tied at a leaf, every cell determined, are the p
    with p.T = T: Aut(B) in the band search.

    Exceeding the budget raises BudgetExceededError mid-stream; consumers
    must treat a truncated stream as failure, never as a complete
    enumeration.
    """
    n, names = cfg.order, tuple("e%d" % i for i in range(cfg.order))
    budget = _Budget(cfg.budget_nodes, cfg.budget_secs)
    for add, auts in bands(n, cfg.up_to_iso, budget):
        for mul in completions(add, auts, budget):
            t = SemiringTable(n, names, add, mul)  # entries in range(n) already
            if _matches_filter(t, cfg.filter):
                yield t


def all_idempotent_semirings(order: int, up_to_iso: bool = False,
                             **kwargs) -> List[SemiringTable]:
    cfg = EnumConfig(order=order, up_to_iso=up_to_iso, **kwargs)
    return list(enumerate_idempotent_semirings(cfg))

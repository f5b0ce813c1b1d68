"""Exhaustive generation of all idempotent semirings of a given order.

The generator fills the + table first (the additive band), then the .
table, backtracking cell by cell.  Diagonal entries are pinned by
idempotency; partial tables are pruned by every associativity or
distributivity instance whose operands are already determined.
Distributivity is the strongest cross-table constraint, which is why the
+ table is completed before any . cell is chosen.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple, Union

from .core import (BudgetExceededError, PreconditionError, SemiringTable,
                   validate_semiring)
from .structure import ClassExpr, _canonical_labelling, _flat, malcev_membership
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


def _assoc_ok_partial(table: List[List[Optional[int]]], n: int) -> bool:
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                bc = table[b][c]
                if ab is not None and bc is not None:
                    left = table[ab][c]
                    right = row_a[bc]
                    if left is not None and right is not None and left != right:
                        return False
    return True


def _distrib_ok_partial(add: List[List[int]], mul: List[List[Optional[int]]],
                        n: int) -> bool:
    for x in range(n):
        for y in range(n):
            xy = mul[x][y]
            yx = mul[y][x]
            for z in range(n):
                xz = mul[x][z]
                # x(y+z) = xy+xz
                if xy is not None and xz is not None:
                    whole = mul[x][add[y][z]]
                    if whole is not None and whole != add[xy][xz]:
                        return False
                # (y+z)x = yx+zx
                zx = mul[z][x]
                if yx is not None and zx is not None:
                    whole = mul[add[y][z]][x]
                    if whole is not None and whole != add[yx][zx]:
                        return False
    return True


def _complete(table: List[List[Optional[int]]], n: int,
              cells: List[Tuple[int, int]], k: int,
              ok: Callable[[List[List[Optional[int]]]], bool],
              budget: _Budget) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    if k == len(cells):
        yield tuple(tuple(row) for row in table)  # type: ignore[misc]
        return
    i, j = cells[k]
    for v in range(n):
        budget.spend()
        table[i][j] = v
        if ok(table):
            yield from _complete(table, n, cells, k + 1, ok, budget)
    table[i][j] = None


def _off_diagonal_cells(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _idempotent_seed(n: int) -> List[List[Optional[int]]]:
    table: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = i
    return table


def _bands(n: int, budget: _Budget) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    yield from _complete(_idempotent_seed(n), n, _off_diagonal_cells(n), 0,
                         lambda tab: _assoc_ok_partial(tab, n), budget)


def _matches_filter(t: SemiringTable,
                    flt: Optional[Union[VarietySpec, ClassExpr]]) -> bool:
    if flt is None:
        return True
    if isinstance(flt, VarietySpec):
        return variety_membership(t, flt)
    return malcev_membership(t, flt)[0]


def enumerate_idempotent_semirings(cfg: EnumConfig) -> Iterator[SemiringTable]:
    """Stream every idempotent semiring of the configured order.

    The stream is deterministic (depth-first, lexicographic cell order).
    With up_to_iso, exactly the canonical-minimal representative of each
    isomorphism class is yielded.  Exceeding the budget raises
    BudgetExceededError mid-stream; consumers must treat a truncated
    stream as failure, never as a complete enumeration.
    """
    n = cfg.order
    budget = _Budget(cfg.budget_nodes, cfg.budget_secs)
    emitted = 0
    for add in _bands(n, budget):
        add_rows = [list(row) for row in add]

        def mul_ok(tab: List[List[Optional[int]]]) -> bool:
            return (_assoc_ok_partial(tab, n)
                    and _distrib_ok_partial(add_rows, tab, n))

        for mul in _complete(_idempotent_seed(n), n, _off_diagonal_cells(n),
                             0, mul_ok, budget):
            t = SemiringTable.from_rows(add, mul)
            if cfg.up_to_iso and _canonical_labelling(t)[0] != _flat(t):
                continue
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


def naive_labeled_count(n: int) -> int:
    """Count labeled idempotent semirings by filtering every idempotent
    table pair through validate_semiring.  Exponential; oracle use only."""
    def associative(op):
        return all(op[op[a][b]][c] == op[a][op[b][c]]
                   for a in range(n) for b in range(n) for c in range(n))

    bands = [op for op in _idempotent_ops(n) if associative(op)]
    count = 0
    for add in bands:
        for mul in bands:
            if validate_semiring(SemiringTable.from_rows(add, mul)).is_idempotent_semiring:
                count += 1
    return count

"""Partitions, binary relations, Green's relations and the six quasi-orders.

Green's relations are computed from the band characterizations (O(n^2)
table lookups); on a valid idempotent semiring both reducts are bands, so
the characterizations are genuine equivalences.  That is verified anyway,
in O(n^2), and a failure raises InternalConsistencyError, since it can
only mean upstream validation was skipped or buggy.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Sequence, Tuple

from .core import (InternalConsistencyError, PreconditionError, SemiringTable)


class UnionFind:
    """Disjoint sets over range(n); union reports whether it merged."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def partition(self) -> "Partition":
        return Partition([self.find(x) for x in range(len(self.parent))])


class Partition:
    """An equivalence relation stored as canonical block labels.

    Block ids are contiguous from 0 and numbered by first occurrence, so
    two Partition objects are equal iff they describe the same equivalence.
    """

    __slots__ = ("order", "labels")

    def __init__(self, labels: Iterable):
        # labels may be any hashables; they are renumbered canonically
        canon = {}
        out = []
        for lab in labels:
            if lab not in canon:
                canon[lab] = len(canon)
            out.append(canon[lab])
        self.order = len(out)
        self.labels = tuple(out)

    @classmethod
    def equality(cls, order: int) -> "Partition":
        return cls(range(order))

    @classmethod
    def universal(cls, order: int) -> "Partition":
        return cls([0] * order)

    @classmethod
    def from_blocks(cls, order: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        labels = [-1] * order
        for i, block in enumerate(blocks):
            for x in block:
                if labels[x] != -1:
                    raise PreconditionError("element %d in two blocks" % x)
                labels[x] = i
        if -1 in labels:
            raise PreconditionError("blocks do not cover [0, %d)" % order)
        return cls(labels)

    @classmethod
    def from_pairs(cls, order: int, pairs: Iterable[Tuple[int, int]]) -> "Partition":
        uf = UnionFind(order)
        for a, b in pairs:
            uf.union(a, b)
        return uf.partition()

    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        out: List[List[int]] = [[] for _ in range(self.num_blocks())]
        for x, lab in enumerate(self.labels):
            out[lab].append(x)
        return tuple(tuple(b) for b in out)

    def num_blocks(self) -> int:
        return max(self.labels) + 1 if self.labels else 0

    def related(self, a: int, b: int) -> bool:
        return self.labels[a] == self.labels[b]

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.order != other.order:
            raise PreconditionError("order mismatch")
        seen = {}
        for a, b in zip(self.labels, other.labels):
            if a in seen:
                if seen[a] != b:
                    return False
            else:
                seen[a] = b
        return True

    def meet(self, other: "Partition") -> "Partition":
        if self.order != other.order:
            raise PreconditionError("order mismatch")
        return Partition(zip(self.labels, other.labels))

    def join(self, other: "Partition") -> "Partition":
        if self.order != other.order:
            raise PreconditionError("order mismatch")
        pairs = []
        for part in (self, other):
            for block in part.blocks():
                pairs.extend(zip(block, block[1:]))
        return Partition.from_pairs(self.order, pairs)

    def pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((a, b) for a in range(self.order)
                         for b in range(self.order) if self.related(a, b))

    def as_relation(self) -> "BinRelation":
        return BinRelation(self.order, self.pairs())

    def to_json(self, names: Sequence[str]) -> List[List[str]]:
        """Sorted list of sorted element-name blocks."""
        return sorted(sorted(names[x] for x in block) for block in self.blocks())

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return "Partition(%r)" % (self.blocks(),)


class BinRelation:
    """An arbitrary binary relation on [0, n): just a set of pairs.

    Reflexivity, symmetry and transitivity are queryable, never assumed.
    """

    __slots__ = ("order", "pairs")

    def __init__(self, order: int, pairs: Iterable[Tuple[int, int]]):
        self.order = order
        self.pairs = frozenset(pairs)
        for a, b in self.pairs:
            if not (0 <= a < order and 0 <= b < order):
                raise PreconditionError("pair (%d, %d) out of range" % (a, b))

    @classmethod
    def from_predicate(cls, order: int,
                       pred: Callable[[int, int], bool]) -> "BinRelation":
        return cls(order, ((a, b) for a in range(order) for b in range(order)
                           if pred(a, b)))

    def contains(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def is_reflexive(self) -> bool:
        return all((a, a) in self.pairs for a in range(self.order))

    def is_symmetric(self) -> bool:
        return all((b, a) in self.pairs for a, b in self.pairs)

    def is_transitive(self) -> bool:
        succ = self._succ()
        return all(c in succ[a] for a, b in self.pairs for c in succ[b])

    def is_antisymmetric(self) -> bool:
        return all(a == b for a, b in self.pairs if (b, a) in self.pairs)

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def _succ(self) -> List[set]:
        succ: List[set] = [set() for _ in range(self.order)]
        for a, b in self.pairs:
            succ[a].add(b)
        return succ

    def transitive_closure(self) -> "BinRelation":
        succ = self._succ()
        changed = True
        while changed:
            changed = False
            for a in range(self.order):
                new = set()
                for b in succ[a]:
                    new |= succ[b] - succ[a]
                if new:
                    succ[a] |= new
                    changed = True
        return BinRelation(self.order, ((a, b) for a in range(self.order)
                                        for b in succ[a]))

    def compose(self, other: "BinRelation") -> "BinRelation":
        """Relational composition: (a, c) whenever a self b and b other c."""
        succ = other._succ()
        return BinRelation(self.order, ((a, c) for a, b in self.pairs
                                        for c in succ[b]))

    def union(self, other: "BinRelation") -> "BinRelation":
        return BinRelation(self.order, self.pairs | other.pairs)

    def intersection(self, other: "BinRelation") -> "BinRelation":
        return BinRelation(self.order, self.pairs & other.pairs)

    def is_subset_of(self, other: "BinRelation") -> bool:
        return self.pairs <= other.pairs

    def to_partition(self) -> Partition:
        if not self.is_equivalence():
            raise PreconditionError("relation is not an equivalence")
        return Partition.from_pairs(self.order, self.pairs)

    def to_json(self, names: Sequence[str]) -> List[List[str]]:
        return sorted([names[a], names[b]] for a, b in self.pairs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BinRelation) and self.order == other.order
                and self.pairs == other.pairs)

    def __hash__(self) -> int:
        return hash((self.order, self.pairs))

    def __repr__(self) -> str:
        return "BinRelation(order=%d, pairs=%r)" % (self.order, sorted(self.pairs))


# ---------------------------------------------------------------------------
# Green's relations

def _green(table: Tuple[Tuple[int, ...], ...], n: int
           ) -> Tuple[Partition, Partition, Partition]:
    """L, R, D of a band given by `table`, via the band characterizations;
    each is an equivalence iff it relates exactly the elements whose rows
    in it are equal, and those rows then label the classes."""
    def classes(name: str, rel: Callable[[int, int], bool]) -> Partition:
        rows = [tuple(rel(a, b) for b in range(n)) for a in range(n)]
        p = Partition(rows)
        if any(rows[a][b] != (p.labels[a] == p.labels[b])
               for a in range(n) for b in range(n)):
            raise InternalConsistencyError(
                "Green's %s is not an equivalence; input was not a valid band" % name)
        return p
    return (classes("L", lambda a, b: table[a][b] == a and table[b][a] == b),
            classes("R", lambda a, b: table[a][b] == b and table[b][a] == a),
            classes("D", lambda a, b: table[a][table[b][a]] == a
                                      and table[b][table[a][b]] == b))


def green_mult(t: SemiringTable) -> Tuple[Partition, Partition, Partition]:
    """Green's relations on the multiplicative reduct: (L., R., D.)."""
    return _green(t.mul, t.order)


def green_add(t: SemiringTable) -> Tuple[Partition, Partition, Partition]:
    """Green's relations on the additive reduct: (L+, R+, D+)."""
    return _green(t.add, t.order)


def quasi_orders(t: SemiringTable) -> Tuple[BinRelation, BinRelation, BinRelation,
                                            BinRelation, BinRelation, BinRelation]:
    """The six quasi-orders: (<=l+, <=r+, <=l., <=r., <=+, <=.).

    a <=l+ b iff b = a+b;  a <=r+ b iff b = b+a;
    a <=l. b iff a = ba;   a <=r. b iff a = ab;
    <=+ and <=. are the respective intersections.
    """
    n = t.order
    le_l_add = BinRelation.from_predicate(n, lambda a, b: t.add[a][b] == b)
    le_r_add = BinRelation.from_predicate(n, lambda a, b: t.add[b][a] == b)
    le_l_mul = BinRelation.from_predicate(n, lambda a, b: t.mul[b][a] == a)
    le_r_mul = BinRelation.from_predicate(n, lambda a, b: t.mul[a][b] == a)
    return (le_l_add, le_r_add, le_l_mul, le_r_mul,
            le_l_add.intersection(le_r_add), le_l_mul.intersection(le_r_mul))

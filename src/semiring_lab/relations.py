"""Partitions, binary relations, Green's relations and the six quasi-orders.

Green's relations of a band are computed from their definitions: the L-
and R-class of a are labelled by the principal ideals Sa and aS, so each
is an equivalence by construction, and D is their join L o R (Howie,
Fundamentals of Semigroup Theory, ch. 2).  The labelling of D by the
ideals SaS and the band characterizations are the tests' oracles.
green_mult and green_add refuse a reduct that is not a band; the theorem
layer, which holds a validated idempotent semiring, calls _green directly.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Sequence, Tuple

from .core import _AXIOMS, PreconditionError, SemiringTable, satisfies_identity


def _transpose(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(zip(*rows))


def _merge_blocks(order: int, pairs: Iterable[Tuple[int, int]],
                  lines: Sequence[Sequence[Sequence[int]]] = ()
                  ) -> Tuple[List[int], List[List[int]]]:
    """The partition generated by pairs, closed under the translations given
    as lines (tables whose row a and row b are paired off whenever a and b
    are merged), as each element's block label and the list of blocks.  The
    pairs are merged in rounds, the given ones and then the translations of
    the last round's merges, each merging the smaller block into the larger
    (so each element is relabelled O(log n) times), until one block is left."""
    label = list(range(order))
    members = [[x] for x in label]
    while pairs:
        merged = []
        for a, b in pairs:
            keep, gone = label[a], label[b]
            if keep == gone:
                continue
            if len(members[keep]) < len(members[gone]):
                keep, gone = gone, keep
            for x in members[gone]:
                label[x] = keep
            members[keep] += members[gone]
            members[gone] = []
            if len(members[keep]) == order:
                return label, [members[keep]]
            merged.append((a, b))
        pairs = [pair for a, b in merged for rows in lines for pair in zip(rows[a], rows[b])]
    return label, [block for block in members if block]


def _compatible(labels: Sequence[int], lines: Sequence[Sequence[Sequence[int]]]) -> bool:
    """Whether the partition with these block labels is closed under the
    translations given as lines (see _merge_blocks): row a and row b of
    each carry the same labels whenever a and b share a block: those of its
    block's first element, label by label, up to the first difference."""
    first: dict = {}
    for a, label in enumerate(labels):
        b = first.setdefault(label, a)
        for rows in (lines if b != a else ()):
            for u, v in zip(rows[a], rows[b]):
                if u != v and labels[u] != labels[v]:
                    return False
    return True


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
                if not 0 <= x < order:
                    raise PreconditionError("element %d outside [0, %d)" % (x, order))
                if labels[x] != -1:
                    raise PreconditionError("element %d in two blocks" % x)
                labels[x] = i
        if -1 in labels:
            raise PreconditionError("blocks do not cover [0, %d)" % order)
        return cls(labels)

    @classmethod
    def from_pairs(cls, order: int, pairs: Iterable[Tuple[int, int]]) -> "Partition":
        return cls(_merge_blocks(order, pairs)[0])

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
        # in an equivalence the successors of a are a's block
        return Partition(frozenset(block) for block in self._succ())

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
    """L, R, D of a band given by `table`: L and R by the principal ideals
    Sa (the column of a) and aS (its row), which as a = aa are S^1a and aS^1,
    and D as L o R, so the D-class of a is the union of the R-classes its
    L-class meets, labelled by the least R-label among them."""
    left = Partition([frozenset(col) for col in zip(*table)])
    right = Partition([frozenset(row) for row in table])
    least = [n] * n  # over each L-class, by its label
    for l, r in zip(left.labels, right.labels):
        if r < least[l]:
            least[l] = r
    return left, right, Partition([least[l] for l in left.labels])


def _require_band(t: SemiringTable, op: str, reduct: str) -> None:
    if not all(satisfies_identity(t, axiom)[0] for name, axiom in _AXIOMS
               if name.startswith(op + "_")):
        raise PreconditionError("Green's relations: the %s reduct is not a band" % reduct)


def green_mult(t: SemiringTable) -> Tuple[Partition, Partition, Partition]:
    """Green's relations on the multiplicative reduct: (L., R., D.)."""
    _require_band(t, "mul", "multiplicative")
    return _green(t.mul, t.order)


def green_add(t: SemiringTable) -> Tuple[Partition, Partition, Partition]:
    """Green's relations on the additive reduct: (L+, R+, D+)."""
    _require_band(t, "add", "additive")
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

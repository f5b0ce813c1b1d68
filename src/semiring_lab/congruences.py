"""Congruences, quotients and the least distributive lattice congruence.

Three independent routes to the least distributive lattice congruence are
implemented: the meet over all congruences with distributive-lattice
quotient (every set partition that passes the definition), the congruence
closure of the relation sigma, and sigma_star read as a partition; only
the closure runs relations._merge_blocks.  They coincide on every
idempotent semiring; the coincidence is a proved theorem, so the library
treats any disagreement as an implementation bug.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Tuple, Union

from .core import (CATALOG, DEFAULT_ORDER_BOUND, PreconditionError, SemiringTable,
                   _relates, _require_idempotent, _require_order)
from .relations import BinRelation, Partition, _compatible, _merge_blocks, _transpose


def _translations(t: SemiringTable) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The translation tables of t: + and . by rows and by columns, so that
    row a of each lists a+c, c+a, ac and ca over c."""
    return t.add, _transpose(t.add), t.mul, _transpose(t.mul)


def is_congruence(t: SemiringTable, p: Partition) -> bool:
    """Compatibility of p with both operations: a p b gives a+c p b+c,
    c+a p c+b, ac p bc and ca p cb for every c (relations._compatible)."""
    if p.order != t.order:
        raise PreconditionError("partition order %d != semiring order %d"
                                % (p.order, t.order))
    return _compatible(p.labels, _translations(t))


def quotient(t: SemiringTable, p: Partition
             ) -> Tuple[SemiringTable, Tuple[int, ...]]:
    """Quotient semiring and the projection map element -> block index.

    Block representatives are the least element of each block.  Only the
    congruence is checked: it makes the tables independent of the
    representatives, and a homomorphic image of a semiring satisfies its
    identities (Burris & Sankappanavar), so the quotient is not re-validated
    (tests/test_congruences.py::test_quotients_validate).
    """
    if not is_congruence(t, p):
        raise PreconditionError("partition is not a congruence")
    return _quotient(t, p)


def _quotient(t: SemiringTable, p: Partition) -> Tuple[SemiringTable, Tuple[int, ...]]:
    """quotient for a partition already known to be a congruence."""
    blocks = p.blocks()
    k = len(blocks)
    reps = [block[0] for block in blocks]
    lab = p.labels
    add = [[lab[t.add[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    mul = [[lab[t.mul[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    names = tuple("|".join(t.names[x] for x in block) for block in blocks)
    return SemiringTable.from_rows(add, mul, names), tuple(lab)


def congruence_closure(t: SemiringTable,
                       seed: Union[BinRelation, Iterable[Tuple[int, int]]]
                       ) -> Partition:
    """Least congruence of t containing the seed relation.

    relations._merge_blocks, the block merge of Partition.from_pairs, given
    the four _translations: merging a and b adds (a+c, b+c),
    (c+a, c+b), (ac, bc), (ca, cb) for every c, read off the rows and
    columns of + and .  Closing the merging pairs suffices: each
    translation maps a chain of them joining x and y to one joining its
    images.
    """
    pairs = seed.pairs if isinstance(seed, BinRelation) else seed
    return Partition(_merge_blocks(t.order, pairs, _translations(t))[0])


def sigma(t: SemiringTable) -> BinRelation:
    """a sigma b iff aba = aba+a+aba and bab = bab+b+bab.

    Reflexive and symmetric by construction; transitivity is NOT
    guaranteed (and genuinely fails on some idempotent semirings).
    """
    r, add, mul = range(t.order), t.add, t.mul
    # ok[a][b]: aba = aba+a+aba, evaluated once per ordered pair
    ok = [[add[add[x][a]][x] == x for x in [mul[ab][a] for ab in mul[a]]] for a in r]
    return BinRelation(t.order, ((a, b) for a in r for b in r if ok[a][b] and ok[b][a]))


def sigma_star(t: SemiringTable) -> BinRelation:
    """a sigma_star b iff some x has axbxa, bxaxb absorbed as in sigma.

    The witness search is exhaustive over x in S.  The result is the
    transitive closure of sigma, a proved theorem (tests/
    test_congruences.py::test_sigma_star_is_transitive_closure).
    """
    n, add, mul = t.order, t.add, t.mul

    def absorbed_via(a: int, b: int, x: int) -> bool:
        w = mul[mul[mul[mul[a][x]][b]][x]][a]  # axbxa
        return add[add[w][a]][w] == w

    return BinRelation.from_predicate(
        n, lambda a, b: any(absorbed_via(a, b, x) and absorbed_via(b, a, x)
                            for x in range(n)))


class CongruenceSet(NamedTuple):
    """All congruences of one semiring, canonically sorted, with a flag per
    congruence telling whether its quotient is a distributive lattice."""

    partitions: Tuple[Partition, ...]
    dl_flags: Tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.partitions)

    def distributive_lattice_congruences(self) -> Tuple[Partition, ...]:
        return tuple(p for p, f in zip(self.partitions, self.dl_flags) if f)


def _set_partitions(n: int) -> List[Tuple[int, ...]]:
    """Every partition of range(n) as a restricted growth string of block
    labels, in ascending order: Bell(n) of them, 4 140 at order 8."""
    strings: List[Tuple[int, ...]] = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


def all_congruences(t: SemiringTable) -> CongruenceSet:
    """The full congruence lattice of an idempotent semiring: each set
    partition of the carrier that relations._compatible accepts, which is
    the definition of a congruence, in ascending label order.  Orders
    above DEFAULT_ORDER_BOUND are refused.  theta is flagged when t/theta,
    idempotent as t is, lies in D (read by core._relates).
    """
    n = t.order
    _require_order(n, "congruence-lattice")
    _require_idempotent(t, "the congruence lattice")
    lines = _translations(t)
    parts = tuple(Partition(s) for s in _set_partitions(n) if _compatible(s, lines))
    flags = tuple(_relates(t, p.labels, CATALOG["D"], (range(n),)) for p in parts)
    return CongruenceSet(parts, flags)


LDC_METHODS = ("meet_oracle", "sigma_closure", "sigma_star")


def least_dl_congruence(t: SemiringTable, method: str = "sigma_closure"
                        ) -> Partition:
    """The least congruence whose quotient is a distributive lattice.

    meet_oracle:    partition meet of every distributive-lattice congruence.
    sigma_closure:  congruence closure of sigma.
    sigma_star:     the partition induced by sigma_star directly, which
                    provably is an equivalence (to_partition checks it).
    Every method needs an idempotent semiring.
    """
    _require_idempotent(t, "the least distributive lattice congruence")
    if method == "meet_oracle":
        dl = all_congruences(t).distributive_lattice_congruences()
        # the universal congruence always qualifies, so dl is non-empty
        acc = dl[0]
        for p in dl[1:]:
            acc = acc.meet(p)
        return acc
    if method == "sigma_closure":
        return congruence_closure(t, sigma(t))
    if method == "sigma_star":
        return sigma_star(t).to_partition()
    raise PreconditionError("unknown method %r; expected one of %r"
                            % (method, LDC_METHODS))


def eta(t: SemiringTable) -> Partition:
    """The least distributive lattice congruence, via the sigma closure."""
    return least_dl_congruence(t, "sigma_closure")

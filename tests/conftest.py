import itertools
from typing import Optional, Tuple

import pytest

import semiring_lab as sl
from semiring_lab import SemiringTable

GOLDEN3_TEXT = """3
a b c
a b c
b b b
c b c

a a a
b b b
a b c
"""


@pytest.fixture(scope="session")
def golden3():
    """The 3-element idempotent semiring printed in the source literature
    (add rows a,b,c then mul rows, row = left operand)."""
    return sl.parse_semiring_text(GOLDEN3_TEXT)


@pytest.fixture(scope="session")
def order1():
    return sl.SemiringTable.from_rows([[0]], [[0]])


@pytest.fixture(scope="session")
def dl2():
    """Two-element distributive lattice: + = join, . = meet on 0 < 1."""
    return sl.SemiringTable.from_rows([[0, 1], [1, 1]], [[0, 0], [0, 1]])


@pytest.fixture(scope="session")
def chain3():
    """Three-element chain lattice: + = max, . = min."""
    n = 3
    return sl.SemiringTable.from_rows(
        [[max(i, j) for j in range(n)] for i in range(n)],
        [[min(i, j) for j in range(n)] for i in range(n)])


@pytest.fixture(scope="session")
def lz2():
    """Left-zero multiplication over the 2-chain join."""
    return sl.SemiringTable.from_rows([[0, 1], [1, 1]], [[0, 0], [1, 1]])


@pytest.fixture(scope="session")
def rz2():
    """Right-zero multiplication over the 2-chain join."""
    return sl.SemiringTable.from_rows([[0, 1], [1, 1]], [[0, 1], [0, 1]])


@pytest.fixture(scope="session")
def labeled_by_order():
    """All labeled idempotent semirings of orders 1..3."""
    return {n: sl.all_idempotent_semirings(n) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def small_semirings(labeled_by_order):
    return [t for ts in labeled_by_order.values() for t in ts]


@pytest.fixture(scope="session")
def iso_small():
    """The 92 isomorphism-class representatives of orders 1..3."""
    return [t for n in (1, 2, 3) for t in sl.all_idempotent_semirings(n, up_to_iso=True)]


@pytest.fixture(scope="session")
def iso4():
    """Isomorphism-class representatives at order 4."""
    return sl.all_idempotent_semirings(4, up_to_iso=True)


def set_partitions(n):
    """All partitions of range(n) as canonical label tuples (oracle)."""
    if n == 0:
        yield ()
        return
    for labels in itertools.product(*[range(i + 1) for i in range(n)]):
        # restricted growth strings are exactly the canonical labelings
        if all(labels[i] <= max(labels[:i], default=-1) + 1 for i in range(n)):
            yield labels


def relabel_seeded(t, rng):
    """t relabelled by a permutation drawn from rng."""
    perm = list(range(t.order))
    rng.shuffle(perm)
    return t.relabel(perm)


def preserves_operations(s, t, perm):
    """perm is a bijection carrying s's + and . onto t's."""
    n = s.order
    return sorted(perm) == list(range(n)) and all(
        t.add[perm[i]][perm[j]] == perm[s.add[i][j]]
        and t.mul[perm[i]][perm[j]] == perm[s.mul[i][j]]
        for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# Permutation-search oracle for isomorphism, independent of the canonical
# labelling that sl.is_isomorphic and sl.canonical_form share

def _row_signature(t: SemiringTable, i: int) -> Tuple:
    # permutation-invariant per-element fingerprint, used only to prune
    add_row = t.add[i]
    mul_row = t.mul[i]
    add_col = tuple(t.add[j][i] for j in range(t.order))
    mul_col = tuple(t.mul[j][i] for j in range(t.order))
    def stats(seq):
        return (seq.count(i), len(set(seq)))
    return stats(add_row) + stats(mul_row) + stats(add_col) + stats(mul_col)


def is_isomorphic_by_search(s: SemiringTable, t: SemiringTable
                            ) -> Optional[Tuple[int, ...]]:
    """A bijection i -> perm[i] preserving both operations, or None.

    Deterministic: the first preserving permutation in lexicographic order
    is returned.  Per-element fingerprints give a cheap early rejection.
    """
    if s.order != t.order:
        return None
    n = s.order
    if sorted(_row_signature(s, i) for i in range(n)) != \
            sorted(_row_signature(t, i) for i in range(n)):
        return None
    for perm in itertools.permutations(range(n)):
        if all(t.add[perm[i]][perm[j]] == perm[s.add[i][j]]
               and t.mul[perm[i]][perm[j]] == perm[s.mul[i][j]]
               for i in range(n) for j in range(n)):
            return perm
    return None

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


@pytest.fixture(scope="session")
def iso_upto4(iso_small, iso4):
    """Isomorphism-class representatives of orders 1..4."""
    return iso_small + iso4


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


def dual(t, plus, dot):
    """t with + reversed (a+b read as b+a) if plus, and . reversed if dot.
    Reversing either operation preserves every semiring axiom."""
    def flip(rows, reverse):
        return [list(col) for col in zip(*rows)] if reverse else rows
    return sl.SemiringTable.from_rows(flip(t.add, plus), flip(t.mul, dot), t.names)


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


# ---------------------------------------------------------------------------
# Reference evaluators that sl.satisfies_identity and sl.validate_semiring
# are compared against

def failures_by_eval_term(t: SemiringTable, ident: sl.Identity, domain):
    """Identity.failures over `domain`, by recursive eval_term."""
    for a in itertools.product(domain, repeat=ident.nvars):
        u, v = sl.eval_term(t, ident.lhs, a), sl.eval_term(t, ident.rhs, a)
        if u != v:
            yield a, u, v


def violations_by_loops(t: SemiringTable) -> Tuple:
    """ValidationReport.violations by hand-written loops over the tables."""
    n, add, mul = t.order, t.add, t.mul
    triples = list(itertools.product(range(n), repeat=3))
    checks = (
        ("add_associative", lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]]),
        ("mul_associative", lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]]),
        ("left_distributive",
         lambda a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]),
        ("right_distributive",
         lambda a, b, c: mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]]),
    )
    out = []
    for name, ok in checks:
        w = next((w for w in triples if not ok(*w)), None)
        if w is not None:
            out.append((name, w))
    for name, op in (("add_idempotent", add), ("mul_idempotent", mul)):
        a = next((a for a in range(n) if op[a][a] != a), None)
        if a is not None:
            out.append((name, (a,)))
    return tuple(out)

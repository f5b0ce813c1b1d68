import itertools
from typing import Optional, Tuple

import pytest

import semiring_lab as sl
from semiring_lab import SemiringTable
from semiring_lab.enumeration import _assoc_ok, _complete, _forced, completions

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


def _relabel_rows(rows, perm):
    """The table `rows` under the bijection i -> perm[i]: cell (a, b) of
    the result is perm[rows[inv[a]][inv[b]]] (oracle for the relabelling
    maps of core._bijections)."""
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple([tuple([perm[rows[a][b]] for b in inv]) for a in inv])


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


def canonical_labelling_by_scan(t: SemiringTable
                                ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """The least relabelling of t, as its + rows then its . rows, and the
    first bijection i -> perm[i] attaining it, by one scan of all n!
    relabellings of both tables (oracle for core._canonical_labelling)."""
    best = None
    for perm in itertools.permutations(range(t.order)):
        key = _relabel_rows(t.add, perm) + _relabel_rows(t.mul, perm)
        if best is None or key < best[0]:
            best = key, perm
    return best


def is_congruence_by_substitution(t: SemiringTable, p) -> bool:
    """Compatibility of p with both operations, by single-sided
    substitution through Partition.related (oracle for is_congruence)."""
    for block in p.blocks():
        a = block[0]
        for b in block[1:]:
            for c in range(t.order):
                if not (p.related(t.add[a][c], t.add[b][c])
                        and p.related(t.add[c][a], t.add[c][b])
                        and p.related(t.mul[a][c], t.mul[b][c])
                        and p.related(t.mul[c][a], t.mul[c][b])):
                    return False
    return True


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


# ---------------------------------------------------------------------------
# Naive enumeration oracle, kept deliberately independent of the
# backtracking search

def _idempotent_ops(n):
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for values in itertools.product(range(n), repeat=len(cells)):
        table = [[i if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(cells, values):
            table[i][j] = v
        yield tuple(tuple(row) for row in table)


def naive_labeled_pairs(n):
    """The (add, mul) rows of every labeled idempotent semiring of order n,
    found by filtering every pair of idempotent associative tables through
    validate_semiring; itertools.product lists them in the generator's
    depth-first order.  Exponential; oracle use only."""
    def associative(op):
        return all(op[op[a][b]][c] == op[a][op[b][c]]
                   for a in range(n) for b in range(n) for c in range(n))

    bands = [op for op in _idempotent_ops(n) if associative(op)]
    return [(add, mul) for add in bands for mul in bands
            if sl.validate_semiring(SemiringTable.from_rows(add, mul)).is_idempotent_semiring]


def naive_labeled_count(n):
    return len(naive_labeled_pairs(n))


# ---------------------------------------------------------------------------
# The labelled search, oracle for the labelled stream, which the library
# builds as the orbits of the iso stream: the same backtracking search with
# no relabelling to compare against, so every band and every . table

def labelled_bands(n, budget):
    """Every + table of order n, depth first: the band search with no
    relabelling compared."""
    every = (1 << n) - 1
    for add, _ in _complete(n, lambda tab, pre, i, j: _forced(tab, pre, i, j, every),
                            _assoc_ok, [], budget):
        yield add


def labelled_search(n, budget):
    """The (add, mul) of every idempotent semiring of order n, depth first:
    each band from labelled_bands, then each . table completing it under
    no automorphism."""
    for add in labelled_bands(n, budget):
        for mul, _ in completions(add, [], budget):
            yield add, mul

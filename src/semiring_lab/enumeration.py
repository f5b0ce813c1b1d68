"""Exhaustive generation of all idempotent semirings of a given order.

The generator fills the + table first (the additive band), then the .
table, backtracking cell by cell.  Diagonal entries are pinned by
idempotency.  As in finite model search (SEM: Zhang and Zhang, IJCAI
1995; Mace4: McCune, ANL 2003) a cell tries only the values it can still
take: those no associativity instance forces away and, in the . stage,
that satisfy the distributivity instances it completes.  After a value
is set, only the associativity instances that look its cell up, and that
its domain did not already settle, are checked: every other determined
instance was checked at the parent node, so this prunes exactly the nodes
a full re-check would, at O(n) instead of O(n^3) cost per node.  An index
of the cells holding each value finds the instances a domain settles
without scanning the table.
Distributivity is the strongest cross-table constraint, which
is why the + table is completed before any . cell is chosen.

Only the isomorphism classes are searched, by orderly generation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998): a partial band
is abandoned as soon as some relabelling makes it smaller, so only the
bands that are their own least relabelling are completed, and a partial .
table as soon as some automorphism of the band makes it smaller.  Both
tests are one comparison in key order, resumed where the parent node's
stopped (lex-leader pruning: Crawford, Ginsberg, Luks and Roy, KR 1996).
The labelled stream is the classes' orbits.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import closing, nullcontext
from functools import partial
from operator import itemgetter, methodcaller
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (BudgetExceededError, InternalConsistencyError, PreconditionError,
                   SemiringTable, _bijections, _Checked, _default_names, _require_order)
from .varieties import Analysis, malcev_product

DEFAULT_NODE_BUDGET = 10 ** 7
DEFAULT_SECS_BUDGET = 1800.0
MAX_WORKERS = 64


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

    def charge(self, nodes: int) -> None:
        self.nodes_left -= nodes
        if self.nodes_left < 0:
            raise BudgetExceededError("node budget exhausted")
        if time.monotonic() > self.deadline:
            raise BudgetExceededError("wall-clock budget exhausted")


class _EnumFields(NamedTuple):
    order: int
    up_to_iso: bool = False
    # a class, as the catalog names malcev_product takes; None keeps all
    filter: Optional[Tuple[str, ...]] = None
    budget_nodes: int = DEFAULT_NODE_BUDGET
    budget_secs: float = DEFAULT_SECS_BUDGET


class EnumConfig(_Checked, _EnumFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.order < 1:
            raise PreconditionError("order must be >= 1")
        _require_order(self.order, "enumeration")  # before anything of size n! is built
        if not (self.budget_nodes > 0 and self.budget_secs > 0):  # rejects nan
            raise PreconditionError("budget must be positive")
        if self.filter is not None:
            if not isinstance(self.filter, tuple):
                raise PreconditionError("filter must be a tuple of catalog names")
            malcev_product(*self.filter)
        return self


# a table being filled (None = undetermined), a full one, and the
# preimage index of a partial table: pre[v] = the determined cells of value v
_Partial = List[List[Optional[int]]]
Rows = Tuple[Tuple[int, ...], ...]
_Index = List[List[Tuple[int, int]]]


def _assoc_ok(table: _Partial, pre: _Index, i: int, j: int) -> bool:
    """Every determined instance of (ab)c = a(bc) that looks up cell (i, j)
    holds, given that its value v is one _forced kept (pre is unused).
    These are the instances with (a, b) = (i, j), (b, c) = (i, j), ab = i
    and c = j, or a = i and bc = j; every other determined instance was
    already checked at the parent node.  Only the first two kinds are
    scanned here.

    Proof that the last two hold: _forced read them when the cell's domain
    was computed, and the table has changed since only at (i, j).  An
    instance (km)j = k(mj) with km = i, or (im)k = i(mk) with mk = j, whose
    lookups miss (i, j) was read there and forced v.  One whose lookups
    pass through (i, j) is (ki)j = k(ij) with ki = i or (ij)k = i(jk) with
    jk = j, both of the first two kinds, or reads v on both sides: (im)j =
    i(mj) with im = i and mj = j, (ij)j = i(jj) or (ii)j = i(ij)."""
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
    return True


def _forced(table: _Partial, pre: _Index, i: int, j: int, m: int) -> int:
    """The n-bit value set m less the values that the undetermined cell
    (i, j) cannot take: each determined instance (ab)j = a(bj) with ab = i
    and (ib)c = i(bc) with bc = j forces one value, read off pre[i] and
    pre[j] instead of a scan of all n^2 cells."""
    for a, b in pre[i]:
        bj = table[b][j]
        if bj is not None and table[a][bj] is not None:
            m &= 1 << table[a][bj]
    for b, c in pre[j]:
        ib = table[i][b]
        if ib is not None and table[ib][c] is not None:
            m &= 1 << table[ib][c]
    return m


_Domain = Callable[[_Partial, _Index, int, int], int]
_Check = Callable[[_Partial, _Index, int, int], bool]
Relabelling = Tuple[Sequence[int], Sequence[int]]  # (perm, inverse)


def _complete(n: int, domain: _Domain, ok: _Check, perms: List[Relabelling],
              budget: _Budget) -> Iterator[Tuple[Rows, list]]:
    """Every idempotent n x n table that ok accepts cell by cell and no
    relabelling in perms makes smaller, depth first, each with the (p, q, c)
    of the p in perms that fix it.  The off-diagonal cells are filled in
    row-major order.  The cell (i, j) at depth k tries, in ascending order,
    the n-bit set of values domain(table, pre, i, j) gives on reaching it,
    pre[v] being the determined cells of value v, kept in step with the
    table.  A value costs one budget node and is kept when ok(table, pre,
    i, j) holds, and then no p makes the table smaller on the prefix
    determined on both sides.  One loop walks the cells; the cell at depth
    k holds the value being tried there, None before the first, and
    rest[k] the values left to try.  ties[k] holds the (p, q, c), c <= k,
    with p.T = T on the cells before depth c, all determined on both
    sides; each resumes at c (proof in enumerate_idempotent_semirings)."""
    table: _Partial = [[i if i == j else None for j in range(n)] for i in range(n)]
    pre: _Index = [[(v, v)] for v in range(n)]
    cells = _off_diagonal_cells(n)
    last, k = len(cells) - 1, 0
    if last < 0:
        yield ((0,),), []
        return
    ties = [[(p, q, 0) for p, q in perms]] + [[]] * last
    rest = [0] * (last + 1)
    while k >= 0:
        i, j = cells[k]
        v = table[i][j]
        if v is None:
            left = domain(table, pre, i, j)
        else:  # undo the value tried last, then try the next one
            pre[v].pop()
            left = rest[k]
        if not left:
            table[i][j] = None
            k -= 1
            continue
        low = left & -left
        rest[k], v = left ^ low, low.bit_length() - 1
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


def bands(n: int, budget: _Budget) -> Iterator[Tuple[Rows, List[Relabelling]]]:
    """The + tables of order n that are their own least relabelling, depth
    first, each with its non-identity automorphisms (proof in
    enumerate_idempotent_semirings)."""
    perms = [(p, q) for p, q, _ in _bijections(n)[1:]]  # the identity fixes every table
    every = (1 << n) - 1
    for add, auts in _complete(n, lambda tab, pre, i, j: _forced(tab, pre, i, j, every),
                               _assoc_ok, perms, budget):
        yield add, [(p, q) for p, q, _ in auts]


def _distributive_domain(add: Rows) -> _Domain:
    """The . search's domain over the band add: the values v of the cell
    (i, j) that _forced keeps and that satisfy each instance of x(y+z) =
    xy+xz and (y+z)x = yx+zx whose last cell in row-major order is (i, j).
    Each is listed once per band, as a mask table and the two cells that
    index it: v = w+u, v+w = u or w+v = u for (i, j) the sum, the left or
    the right addend, and v = v+w or v = w+v, read at (w, w), for the sum
    and one addend."""
    n = len(add)
    sums = [[1 << add[w][u] for u in range(n)] for w in range(n)]
    left, right = [[0] * n for _ in add], [[0] * n for _ in add]
    for v, w in itertools.product(range(n), repeat=2):
        left[w][add[v][w]] |= 1 << v
        right[w][add[w][v]] |= 1 << v
    fix_left = [[sum(left[w][v] & 1 << v for v in range(n))] * n for w in range(n)]
    fix_right = [[sum(right[w][v] & 1 << v for v in range(n))] * n for w in range(n)]
    rules: List[List[list]] = [[[] for _ in add] for _ in add]
    for x, y, z in itertools.product(range(n), repeat=3):
        if y == z:  # xy = xy+xy holds in any band
            continue
        s = add[y][z]
        # the cells lie in row x, ordered by column, or in column x, ordered
        # by row, the diagonal cell (x, x) being determined from the start
        last = max({y, z, s} - {x})
        if s != last:
            masks, p, q = (left, z, s) if y == last else (right, y, s)
        elif y == last:
            masks, p, q = fix_left, z, z
        elif z == last:
            masks, p, q = fix_right, y, y
        else:
            masks, p, q = sums, y, z
        rules[x][last].append((masks, x, p, x, q))
        rules[last][x].append((masks, p, x, q, x))
    every = (1 << n) - 1

    def domain(table: _Partial, pre: _Index, i: int, j: int) -> int:
        m = every
        for masks, a, b, c, d in rules[i][j]:
            m &= masks[table[a][b]][table[c][d]]
        return _forced(table, pre, i, j, m)

    return domain


def completions(add: Rows, auts: List[Relabelling], budget: _Budget
                ) -> Iterator[Tuple[Rows, List[Relabelling]]]:
    """The . tables making (add, .) an idempotent semiring, depth first;
    given the non-identity automorphisms auts of add, only those that no
    automorphism relabels smaller, each with the auts that fix it (proof
    in enumerate_idempotent_semirings)."""
    for mul, tied in _complete(len(add), _distributive_domain(add), _assoc_ok, auts, budget):
        yield mul, [(p, q) for p, q, _ in tied]


def enumerate_idempotent_semirings(cfg: EnumConfig) -> Iterator[SemiringTable]:
    """Stream every idempotent semiring of the configured order.

    The stream is deterministic.  With up_to_iso it is the canonical-minimal
    representative of each isomorphism class, depth first: each band B from
    bands(), then each . table M from completions(B).  The canonical key of
    (B, M) is the least (s.B, s.M) over all relabellings s.  Its + part is
    the least relabelling of B, so (B, M) is canonical iff B is its own
    least relabelling and no s attaining it, that is no s in Aut(B), makes
    s.M smaller than M.  Labelled, it is every table in lexicographic order
    of (B, M) over row-major cells: the orbits of those representatives.

    Both searches prune by one lemma.  Cells are filled in row-major order,
    which is the order tables are compared in, and cell (a, b) of p.T reads
    only T's cell (inv a, inv b).  So if p.T is smaller than T on a
    row-major prefix determined on both sides, every completion T' keeps
    those cells on both sides and p.T' < T'.  The band search prunes a
    node (partial B) when this holds for some non-identity p: every band
    below it has a smaller relabelling, so no least band is lost.  At a
    leaf every cell is determined and the test reads "no p.B < B", which
    is leastness itself; so the leaves kept are exactly the least bands,
    in lexicographic order, and Aut(B) is the p with p.B = B.  The .
    search prunes a node (partial M) when this holds for some p in Aut(B):
    each completion M' has p.(B, M') = (B, p.M') < (B, M').  Its leaf test
    is exactly "p.M < M" above, so the leaves kept are the canonical ones,
    in lexicographic order.

    A node need not compare p.T with T from cell (0, 0) again: its parent
    stopped at the first cell c undetermined on either side, and setting
    more cells changes no cell before c, so a tie before c stays a tie and
    the comparison resumes at c.  A p.T larger on the determined prefix
    stays larger on every completion, by the lemma with the sides swapped,
    so that p can neither prune nor fix a leaf below and is dropped for the
    whole subtree.  The p tied at a leaf, every cell determined, are the p
    with p.T = T: Aut(B) in the band search, Aut(B, M) in the . search.

    A cell tries only its domain's values, and this changes no leaf, no
    leaf's order and no Aut(B).  The determined cells at a cell are the
    diagonal and the cells before it, so a distributivity instance whose
    last cell this is becomes complete when it is set; the domain leaves a
    value out only if it breaks such an instance or an associativity one
    that _forced reads, both of which a full check at the node the value
    would make rejects, and _assoc_ok skips only the instances _forced read
    (proof at _assoc_ok).  So the values that pass the checks are the same,
    in the same ascending order, and every test after them sees the same
    tables.

    The orbit lemma.  Each labelled (B, M) is tau.(B0, M0) for exactly one
    class (B0, M0), as orbits are disjoint, and the tau with tau.B0 = B form
    one coset of Aut(B0).  So the set of tau.M0 over that coset and the
    completions M0 of B0 is every table over B, none of them from two
    classes; sweep sorts the n! images of each least band, which lists the
    labelled bands in order, each with its coset, then each band's set.

    The stream runs through sweep, so it yields a band's tables once the
    band is complete.  The node budget counts an order's iso search nodes
    and, labelled, one per table, charged (and the clock read) for each
    labelled band before it is yielded.  Labelled order 6 needs 2 524 682 +
    63 093 228 = 65 617 910, above the default, so budget_nodes=10**8
    (--budget-nodes 100000000).  Exceeding the budget raises
    BudgetExceededError after the last complete band; consumers must treat a
    truncated stream as failure, never as a complete enumeration.
    """
    for _, _, t, member in sweep([cfg], 1, cfg.filter and methodcaller("member", *cfg.filter)):
        if cfg.filter is None or member:
            yield t


def _band_job(check, job) -> Tuple[int, int, Optional[Rows], list]:
    """The order, the nodes spent, the band and (add, mul, check(a)) for each
    table completing it, a being its Analysis (sharing the band's facts as
    the tables share its + tuple), or None; a job with no band ends its order."""
    n, add, auts, nodes, deadline = job
    if add is None:
        return n, 0, None, []
    budget = _Budget(nodes, deadline - time.monotonic())
    found = [(add, mul, check and check(Analysis(SemiringTable(n, _default_names(n), add, mul))))
             for mul, _ in completions(add, auts, budget)]  # entries in range(n) already
    return n, nodes - budget.nodes_left, add, found


def _serve(run: Callable, jobs_fd: int, results_fd: int, inherited: List[int]) -> None:
    """A forked worker, left only through os._exit: run(job), or the
    exception it raised, for each job read, each a pickle after its length."""
    try:
        import pickle
        for fd in inherited:
            os.close(fd)
        with open(jobs_fd, "rb") as jobs, open(results_fd, "wb") as results:
            for head in iter(lambda: jobs.read(8), b""):
                try:
                    out = run(pickle.loads(jobs.read(int.from_bytes(head, "little"))))
                except Exception as exc:
                    out = exc
                data = pickle.dumps(out, -1)
                results.write(len(data).to_bytes(8, "little") + data)
                results.flush()
        os._exit(0)
    finally:
        os._exit(1)


# jobs per worker that _farm may send past the last result it yielded:
# results held for the stream against workers waiting behind a long job.
# With the job times of verify at order 6 and 2 workers, the sweep takes
# about 6% longer than unbounded at 4, 1% at 16 and under 0.1% at 32.
_AHEAD = 32


def _farm(workers: int, run: Callable, jobs: Iterator[tuple]) -> Iterator[tuple]:
    """map(run, jobs), in order, from forked workers that inherit run, fed
    from this thread, each holding two jobs at most, none sent more than
    _AHEAD * workers ahead of the last result yielded.  A job's exception,
    or next(jobs)'s, is raised at its place in the stream; a worker that
    ends early, as InternalConsistencyError.  Every worker is reaped at the
    end, having exited at EOF or, holding jobs, been killed."""
    import pickle
    import select
    import signal
    ours: List[int] = []  # this process's pipe ends: worker w's jobs at 2w, results at 2w+1
    pids: List[int] = []
    queued: List[List[int]] = [[] for _ in range(workers)]  # the job numbers each holds
    try:
        for _ in range(workers):
            theirs: List[int] = []  # the worker's pipe ends, closed here once it is forked
            try:
                job_r, job_w = os.pipe()
                theirs.append(job_r)
                ours.append(job_w)
                res_r, res_w = os.pipe()
                theirs.append(res_w)
                ours.append(res_r)
                pid = os.fork()
                if pid == 0:
                    _serve(run, job_r, res_w, ours)
            except OSError as exc:
                raise PreconditionError("cannot start a worker: %s" % exc) from None
            finally:
                for fd in theirs:
                    os.close(fd)
            pids.append(pid)
            os.set_blocking(job_w, False)  # what the pipe cannot take waits in outbox
        outbox, inbox = [bytearray() for _ in pids], [bytearray() for _ in pids]
        done: Dict[int, object] = {}  # job number -> its result or exception
        sent = given = 0
        more = True
        while more or given < sent:
            while more and sent - given < _AHEAD * workers:
                w = min(range(workers), key=lambda w: len(queued[w]))
                if len(queued[w]) == 2:
                    break
                try:
                    data = pickle.dumps(next(jobs), -1)
                except StopIteration:
                    more = False
                    break
                except Exception as exc:
                    done[sent], more = exc, False
                else:
                    outbox[w] += len(data).to_bytes(8, "little") + data
                    queued[w].append(sent)
                sent += 1
            if given in done:
                result = done.pop(given)
                given += 1
                if isinstance(result, Exception):
                    raise result
                yield result  # type: ignore[misc]
                continue
            readable, writable, _ = select.select(
                ours[1::2], [fd for fd, out in zip(ours[::2], outbox) if out], [])
            try:  # a pipe to or from worker w breaks only if w has ended
                for fd in writable:
                    w = ours.index(fd) // 2
                    del outbox[w][:os.write(fd, outbox[w])]
                for fd in readable:
                    w = ours.index(fd) // 2
                    buf, chunk = inbox[w], os.read(fd, 1 << 16)
                    if not chunk:
                        raise BrokenPipeError
                    buf += chunk
                    while len(buf) >= 8 and len(buf) >= (size := 8 + int.from_bytes(buf[:8], "little")):
                        done[queued[w].pop(0)] = pickle.loads(buf[8:size])
                        del buf[:size]
            except BrokenPipeError:
                raise InternalConsistencyError("worker %d ended holding jobs" % pids[w]) from None
    finally:
        for fd in ours:
            os.close(fd)
        for pid, held in zip(pids, queued):
            if held:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def sweep(cfgs: List[EnumConfig], workers: int, check: Optional[Callable[[Analysis], object]]
          ) -> Iterator[Tuple[int, int, SemiringTable, object]]:
    """(order, index, t, result) for each table t of the configured orders,
    in stream order for any worker count, each index counting its order's
    tables, result being _band_job's for t's class.  workers, in
    1..MAX_WORKERS and above 1 only with os.fork, is checked before any band
    is searched.  This process runs the band search; each least band is one
    _band_job, run here or in the workers _farm forks, which inherit the
    check and which this thread feeds as it pulls bands, and a labelled
    order yields its _orbits once its last job is in.  An order's band
    search and its . searches draw on one _Budget: a job may spend the nodes
    left at dispatch, which only charges still to come lower, and is charged
    as its result comes in.  So the order raises BudgetExceededError exactly
    when its nodes in all exceed its budget, for any worker count, and
    before any table of a later order is yielded."""
    if not 1 <= workers <= MAX_WORKERS:
        raise PreconditionError("--workers must be in 1..%d" % MAX_WORKERS)
    if workers > 1 and not hasattr(os, "fork"):
        raise PreconditionError("--workers above 1 needs os.fork, which this platform lacks")
    budgets: Dict[int, _Budget] = {}  # order -> its one node budget

    def jobs():
        for cfg in cfgs:
            budget = budgets[cfg.order] = _Budget(cfg.budget_nodes, cfg.budget_secs)
            for add, auts in bands(cfg.order, budget):
                yield cfg.order, add, auts, budget.nodes_left, budget.deadline
            yield cfg.order, None, None, 0, 0.0

    index = {cfg.order: itertools.count() for cfg in cfgs}  # over each order's tables
    # a labelled order's least bands, with their tables' . cells and results
    least: Dict[int, list] = {cfg.order: [] for cfg in cfgs if not cfg.up_to_iso}
    run = partial(_band_job, check)
    with (closing(_farm(workers, run, jobs())) if workers > 1
          else nullcontext(map(run, jobs()))) as results:
        for n, nodes, add, found in results:
            budgets[n].charge(nodes)
            if n in least:
                if add is not None:
                    least[n].append((add, [(bytes(itertools.chain(*mul)), result)
                                           for _, mul, result in found]))
                    continue
                found = _orbits(n, least.pop(n), budgets[n])
            for add, mul, result in found:
                yield n, next(index[n]), SemiringTable(n, _default_names(n), add, mul), result


def _orbits(n: int, least: list, budget: _Budget) -> Iterator[Tuple[Rows, Rows, object]]:
    """The + and . rows of each labelled table of order n, each relabelled
    as bytes by _bijections(n), with its class's result, in stream order,
    by the orbit lemma at enumerate_idempotent_semirings."""
    maps = [image for _, _, image in _bijections(n)]
    # each least band's images, as their cells then its number and the bijection's
    images = sorted(image(flat) + (b * len(maps) + k).to_bytes(6, "big")
                    for b, flat in enumerate(bytes(itertools.chain(*add)) for add, _ in least)
                    for k, image in enumerate(maps))
    for band, coset in itertools.groupby(images, itemgetter(slice(n * n))):
        coset = [divmod(int.from_bytes(image[n * n:], "big"), len(maps)) for image in coset]
        tables = {maps[k](mul): result for b, k in coset for mul, result in least[b][1]}
        budget.charge(len(tables))
        add = tuple(zip(*[iter(band)] * n))
        for mul, result in sorted(tables.items()):
            yield add, tuple(zip(*[iter(mul)] * n)), result


def all_idempotent_semirings(order: int, up_to_iso: bool = False,
                             **kwargs) -> List[SemiringTable]:
    cfg = EnumConfig(order=order, up_to_iso=up_to_iso, **kwargs)
    return list(enumerate_idempotent_semirings(cfg))

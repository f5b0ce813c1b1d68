"""Finite idempotent semirings as Cayley tables and their isomorphism, plus
terms, identities (compiled by one emitter, each alone or several in one
pass) and the catalog of varieties they define.

Elements are 0-based indices; the ``names`` field is display-only.  Tables
are immutable after construction and validation is explicit: nothing is
assumed about a table until ``validate_semiring`` has been run on it.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

DEFAULT_ORDER_BOUND = 8  # nothing of size n! or Bell(n) is built above this order


class SemiringFormatError(ValueError):
    """A semiring text file or table literal is structurally malformed."""


class PreconditionError(ValueError):
    """An operation was called on input violating its contract."""


class ResourceBoundError(PreconditionError):
    """Input exceeds a configured size bound."""


class BudgetExceededError(RuntimeError):
    """A search ran out of its node or wall-clock budget."""


class InternalConsistencyError(AssertionError):
    """A machine-checked theorem failed on a finite instance.

    Every theorem exercised here is proved, so this always flags a bug in
    the implementation (or in upstream validation), never in the input.
    """


@cache
def _default_names(n: int) -> Tuple[str, ...]:
    """The element names of a table given none: e0, e1, ..."""
    return tuple("e%d" % i for i in range(n))


def _relabelling(p: Sequence[int]) -> Tuple[List[int], Callable[[bytes], bytes]]:
    """The inverse q of the bijection i -> p[i], and the map carrying a
    table, as its row-major bytes, to its image: cell (a, b) of the image
    is p[cell (q a, q b)]."""
    n = len(p)
    q = sorted(range(n), key=p.__getitem__)
    # the extra index, whose byte is cut, makes the getter return a tuple at n = 1
    cells = itemgetter(*[q[a] * n + q[b] for a in range(n) for b in range(n)], 0)
    values = bytes(p).ljust(256, b"\0")
    return q, lambda flat: bytes(cells(flat)).translate(values)[:-1]


def _require_order(n: int, what: str) -> None:
    if n > DEFAULT_ORDER_BOUND:
        raise ResourceBoundError("order %d exceeds %s bound %d" % (n, what, DEFAULT_ORDER_BOUND))


@lru_cache(maxsize=1)
def _bijections(n: int) -> Tuple[Tuple[Tuple[int, ...], List[int], Callable[[bytes], bytes]], ...]:
    """(p, q, map) of _relabelling(p) for every bijection p of range(n), in
    lexicographic order, the identity first; held for the last n asked."""
    _require_order(n, "relabelling")
    return tuple((p, *_relabelling(p)) for p in itertools.permutations(range(n)))


class SemiringTable(NamedTuple):
    """A finite algebra (S, +, .) of order n given by two n x n tables.

    ``add[i][j]`` and ``mul[i][j]`` are element indices.  No axioms are
    assumed; run ``validate_semiring`` to check them.
    """

    order: int
    names: Tuple[str, ...]
    add: Tuple[Tuple[int, ...], ...]
    mul: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_rows(add_rows: Sequence[Sequence[int]],
                  mul_rows: Sequence[Sequence[int]],
                  names: Optional[Sequence[str]] = None) -> "SemiringTable":
        n = len(add_rows)
        if n == 0:
            raise SemiringFormatError("empty table")
        names = _default_names(n) if names is None else tuple(names)
        if len(names) != n or len(set(names)) != n:
            raise SemiringFormatError("need %d distinct element names" % n)
        for name in names:  # as the text format splits its lines into names
            if not isinstance(name, str) or name.split() != [name]:
                raise SemiringFormatError("element name %r is not a non-empty "
                                          "string without whitespace" % (name,))
        for rows, label in ((add_rows, "add"), (mul_rows, "mul")):
            if len(rows) != n:
                raise SemiringFormatError("%s table is not %d x %d" % (label, n, n))
            for row in rows:
                if len(row) != n:
                    raise SemiringFormatError("%s table is not %d x %d" % (label, n, n))
                for v in row:
                    if not (isinstance(v, int) and 0 <= v < n):
                        raise SemiringFormatError(
                            "%s table entry %r out of range [0, %d)" % (label, v, n))
        return SemiringTable(n, names, tuple(map(tuple, add_rows)),
                             tuple(map(tuple, mul_rows)))

    def relabel(self, perm: Sequence[int]) -> "SemiringTable":
        """Apply the bijection i -> perm[i] to the carrier, of order at most
        256 as the tables pass through bytes; any other map is refused."""
        if sorted(perm) != list(range(self.order)):
            raise PreconditionError("%r is not a permutation of range(%d)"
                                    % (list(perm), self.order))
        n, (q, image) = self.order, _relabelling(perm)
        return SemiringTable(n, tuple(self.names[k] for k in q), *(
            tuple(zip(*[iter(image(bytes(itertools.chain(*rows))))] * n))
            for rows in (self.add, self.mul)))

    def __repr__(self) -> str:
        return "SemiringTable(order=%d, names=%r)" % (self.order, list(self.names))


def _canonical_labelling(t: SemiringTable
                         ) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """The least relabelling of t, as its + rows then its . rows, which
    isomorphic tables and only they share, and the first bijection
    i -> perm[i] attaining it: row-major bytes compare as their rows do."""
    n, add, mul = t.order, bytes(itertools.chain(*t.add)), bytes(itertools.chain(*t.mul))
    key, perm = min((image(add) + image(mul), p) for p, _, image in _bijections(n))
    return tuple(zip(*[iter(key)] * n)), perm


def canonical_form(t: SemiringTable) -> SemiringTable:
    """Lexicographically least relabeling of t, with default names.

    Two semirings are isomorphic iff their canonical forms are equal.
    """
    key, n = _canonical_labelling(t)[0], t.order
    return SemiringTable.from_rows(key[:n], key[n:])


def is_isomorphic(s: SemiringTable, t: SemiringTable
                  ) -> Optional[Tuple[int, ...]]:
    """A bijection i -> perm[i] preserving both operations, or None:
    s's canonical labelling followed by the inverse of t's, which is
    deterministic and the identity when the two tables are equal."""
    if s.order != t.order:
        return None
    (s_key, s_perm), (t_key, t_perm) = _canonical_labelling(s), _canonical_labelling(t)
    if s_key != t_key:
        return None
    return tuple(map(_relabelling(t_perm)[0].__getitem__, s_perm))


# ---------------------------------------------------------------------------
# Terms and identities

class Var(NamedTuple):
    index: int


class Add(NamedTuple):
    left: "Term"
    right: "Term"


class Mul(NamedTuple):
    left: "Term"
    right: "Term"


Term = Union[Var, Add, Mul]
# as plain tuples Add(l, r) and Mul(l, r) are equal, and _compile would read
# one for the other: a compound term equals only terms of its own operation
for _op in (Add, Mul):
    _op.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    _op.__ne__ = lambda self, other: not self == other
    _op.__hash__ = lambda self: hash((type(self).__name__, *self))


def term_max_var(term: Term) -> int:
    if isinstance(term, Var):
        return term.index
    return max(term_max_var(term.left), term_max_var(term.right))


class _Checked:
    """Base of a NamedTuple record whose __new__ checks its fields: _make
    (which _replace calls), pickle and copy (by __reduce__) call the class,
    so every copy is checked, and only the fields are pickled."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))
    __reduce__ = lambda self: (type(self), tuple(self))


class _IdentityFields(NamedTuple):
    lhs: Term
    rhs: Term
    nvars: int


class Identity(_Checked, _IdentityFields):
    """An ordered pair of terms; satisfied when both sides agree everywhere."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        need = max(term_max_var(self.lhs), term_max_var(self.rhs)) + 1
        if self.nvars < need:
            raise PreconditionError("identity declares %d variables, uses %d"
                                    % (self.nvars, need))
        return self

    @cached_property
    def failures(self) -> Callable:
        """A generator function (add, mul, domain) yielding (assignment,
        lhs value, rhs value) for each assignment of values from domain
        on which the sides differ, in lexicographic order; compiled from
        the terms on first use, and kept out of the pickled state, as a
        function made by exec does not pickle."""
        return _compile((self,), "yield (%(vars)s), %(l)s, %(r)s")

    # (add, mul, domain, labels): whether the sides share a label at each assignment
    relates = cached_property(lambda self: _compile(
        (self,), "if L[%(l)s] != L[%(r)s]: return False", last="return True"))


class Identities(tuple):
    """Identities decided in one pass: failed(add, mul, domain) is a mask
    whose bit i is set when identity i fails on domain; compiled on first use."""

    failed = cached_property(lambda self: _compile(self, "m |= %(bit)d", "m = 0", "return m"))


def _compile(idents: Sequence[Identity], differ: str, first="", last="") -> Callable:
    """A function (A, M, D, L=None) of nested loops over v0, v1, ... in D,
    computing each distinct compound subterm of idents once, as A[..][..] (+) or
    M[..][..] (.), in the loop of its last variable, where differ (given bit, vars,
    l, r) runs if an identity's sides differ; built from the term trees alone."""
    k = max(ident.nvars for ident in idents)
    names = "".join("v%d, " % d for d in range(k))
    # Python nests at most 20 blocks; past that, one (slower) product loop
    loops = (["for v%d in D:" % d for d in range(k)] if k <= 20
             else ["for %sin product(D, repeat=%d):" % (names, k)])
    body = [[loop] for loop in loops]  # each loop, then its lines one level in
    local: Dict[Term, str] = {}  # compound subterm -> the variable holding it

    def code(term: Term) -> str:
        if isinstance(term, Var):
            return "v%d" % term.index
        if term not in local:
            left, right = code(term.left), code(term.right)
            local[term] = "t%d" % len(local)
            body[min(term_max_var(term), len(loops) - 1)].append(" %s = %s[%s][%s]" % (
                local[term], "A" if isinstance(term, Add) else "M", left, right))
        return local[term]

    for i, ident in enumerate(idents):
        l, r = code(ident.lhs), code(ident.rhs)
        body[min(ident.nvars, len(loops)) - 1] += [" if %s != %s:" % (l, r), "  " + differ % {
            "bit": 1 << i, "vars": names, "l": l, "r": r}]
    scope = {"product": itertools.product}
    exec("def compiled(A, M, D, L=None):\n %s\n%s\n %s" % (first, "\n".join(
        " " * (d + 1) + line for d, lines in enumerate(body) for line in lines), last), scope)
    return scope["compiled"]


_VAR_LETTERS = "xyzwuv"


def parse_term(text: str) -> Term:
    """Parse terms like ``x+xyx+x`` or ``x(y+x+y)``.

    Juxtaposition is multiplication (binds tighter than +); both operators
    associate to the left; variables are single letters from x, y, z, w,
    u, v, numbered in that order.
    """
    tokens = [ch for ch in text if not ch.isspace()]
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_sum():
        nonlocal pos
        node = parse_product()
        while peek() == "+":
            pos += 1
            node = Add(node, parse_product())
        return node

    def parse_product():
        nonlocal pos
        node = parse_atom()
        while peek() is not None and peek() not in "+)":
            node = Mul(node, parse_atom())
        return node

    def parse_atom():
        nonlocal pos
        ch = peek()
        if ch == "(":
            pos += 1
            node = parse_sum()
            if peek() != ")":
                raise SemiringFormatError("unbalanced parentheses in %r" % text)
            pos += 1
            return node
        if ch is not None and ch in _VAR_LETTERS:
            pos += 1
            return Var(_VAR_LETTERS.index(ch))
        raise SemiringFormatError("unexpected %r in term %r" % (ch, text))

    term = parse_sum()
    if pos != len(tokens):
        raise SemiringFormatError("trailing input in term %r" % text)
    return term


def parse_identity(text: str) -> Identity:
    """Parse ``lhs = rhs`` (or ``lhs ≈ rhs``) into an Identity."""
    norm = text.replace("≈", "=")
    if norm.count("=") != 1:
        raise SemiringFormatError("identity needs exactly one '=': %r" % text)
    lhs_s, rhs_s = norm.split("=")
    lhs, rhs = parse_term(lhs_s), parse_term(rhs_s)
    return Identity(lhs, rhs, max(term_max_var(lhs), term_max_var(rhs)) + 1)


def eval_term(t: SemiringTable, term: Term, assignment: Sequence[int]) -> int:
    """Value of ``term`` under ``t``'s tables by structural recursion."""
    if isinstance(term, Var):
        if term.index >= len(assignment):
            raise PreconditionError("variable %d outside assignment of length %d"
                                    % (term.index, len(assignment)))
        return assignment[term.index]
    l = eval_term(t, term.left, assignment)
    r = eval_term(t, term.right, assignment)
    return t.add[l][r] if isinstance(term, Add) else t.mul[l][r]


def satisfies_identity(t: SemiringTable, ident: Identity
                       ) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Exhaustively check an identity; n**nvars assignments.

    Returns (True, None), or (False, w) where w is the lexicographically
    first failing assignment, found by Identity.failures; eval_term is
    the reference evaluator it is tested against.
    """
    for assignment, _, _ in ident.failures(t.add, t.mul, range(t.order)):
        return False, assignment
    return True, None


# ---------------------------------------------------------------------------
# Axiom validation

class ValidationReport(NamedTuple):
    """Outcome of the exhaustive axiom check for one table pair."""

    is_semiring: bool
    is_idempotent_semiring: bool
    violations: Tuple[Tuple[str, Tuple[int, ...]], ...]


_SEMIRING_AXIOMS = (("add_associative", "(x+y)+z = x+(y+z)"),
                    ("mul_associative", "(xy)z = x(yz)"),
                    ("left_distributive", "x(y+z) = xy+xz"),
                    ("right_distributive", "(x+y)z = xz+yz"))
_IDEMPOTENT_AXIOMS = (("add_idempotent", "x+x = x"), ("mul_idempotent", "xx = x"))
_AXIOMS = tuple((name, parse_identity(text))
                for name, text in _SEMIRING_AXIOMS + _IDEMPOTENT_AXIOMS)


def validate_semiring(t: SemiringTable) -> ValidationReport:
    """Exhaustive check of the semiring and idempotency axioms, each an
    identity checked by satisfies_identity.

    Each failed axiom is reported once, with the lexicographically first
    witness tuple.  Pure: the same table always yields the same report.
    """
    violations = []
    for name, axiom in _AXIOMS:
        ok, witness = satisfies_identity(t, axiom)
        if not ok:
            violations.append((name, witness))
    bad = {name for name, _ in violations}
    is_semiring = not (bad & {name for name, _ in _SEMIRING_AXIOMS})
    is_idempotent = is_semiring and not (bad & {name for name, _ in _IDEMPOTENT_AXIOMS})
    return ValidationReport(is_semiring, is_idempotent, tuple(violations))


def _require_idempotent(t: SemiringTable, what: str) -> None:
    if any(t.add[a][a] != a or t.mul[a][a] != a for a in range(t.order)):
        raise PreconditionError("%s needs an idempotent semiring" % what)


# ---------------------------------------------------------------------------
# The variety catalog

class VarietySpec(NamedTuple):
    """A named variety given by its defining identities, read within the
    class of idempotent semirings (the semiring axioms are presupposed)."""

    name: str
    identities: Tuple[Identity, ...]


def _spec(name: str, *identity_texts: str) -> VarietySpec:
    return VarietySpec(name, tuple(parse_identity(s) for s in identity_texts))


# Naming note: the literature writes R-bullet both for the variety of
# multiplicatively rectangular semirings (xyx = x) and for the variety on
# which the least distributive lattice congruence equals Green's R of the
# multiplicative reduct.  Here the former is "RB", the latter "R_dot".
CATALOG: Dict[str, VarietySpec] = {spec.name: spec for spec in [
    _spec("I"),                                  # all idempotent semirings
    _spec("R_plus", "x+y+x = x"),
    _spec("RB", "xyx = x"),
    _spec("LZ_plus", "x+y = x"),
    _spec("RZ_plus", "x+y = y"),
    _spec("LZ_dot", "xy = x"),
    _spec("RZ_dot", "xy = y"),
    _spec("LNB_dot", "xyz = xzy"),
    _spec("RNB_dot", "xyz = yxz"),
    _spec("LQBi", "x+xy+x = x"),
    _spec("RQBi", "x+yx+x = x"),
    _spec("LN", "x+xyx = x"),
    _spec("RN", "xyx+x = x"),
    _spec("N", "x+xyx+x = x"),
    _spec("Sl_plus", "x+y = y+x"),
    _spec("D", "x+y = y+x", "xy = yx", "x+xy = x"),
    _spec("Bi", "x+xy+x = x", "x+yx+x = x"),
    _spec("D_dot", "x = xyx+x+xyx"),
    _spec("L_dot", "x = xy+x+xy"),
    _spec("R_dot", "x = yx+x+yx"),
    _spec("L_plus_var", "x+yxy = x"),
]}


def variety_membership(t: SemiringTable, v: VarietySpec) -> bool:
    """Conjunction of exhaustive identity checks over v's identities."""
    return _relates(t, range(t.order), v, (range(t.order),))


def in_variety(t: SemiringTable, name: str) -> bool:
    return variety_membership(t, CATALOG[name])


def is_distributive_lattice(t: SemiringTable) -> bool:
    """Membership of an idempotent semiring in the variety D: both
    operations commutative plus absorption x+xy = x.

    The dual absorption x(x+y) = xx+xy = x+xy = x then follows from
    distributivity and xx = x, hence the idempotency guard (tests/
    test_core.py::test_distributive_lattices_absorb_dually).
    """
    _require_idempotent(t, "distributive lattice recognition")
    return variety_membership(t, CATALOG["D"])


def _instances(t: SemiringTable, spec: VarietySpec,
               blocks: Sequence[Sequence[int]]) -> Iterator[Tuple[int, int]]:
    """Every pair (u(a), v(a)) with u(a) != v(a), for an identity u = v of
    spec and an assignment a drawn from a single block: the seeds of merges."""
    for ident in spec.identities:
        for block in blocks:
            for _, u, v in ident.failures(t.add, t.mul, block):
                yield u, v


def _relates(t: SemiringTable, labels: Sequence[int], spec: VarietySpec,
             blocks: Sequence[Sequence[int]]) -> bool:
    """Whether the partition with these labels relates both sides of every
    instance of spec assigned inside one of blocks; for a congruence theta
    inside a congruence rho with these blocks, whether each class of
    rho/theta lies in spec: the projection onto t/theta is a surjective
    homomorphism, so an assignment in a class of rho/theta lifts to one in
    a block of rho, where each term's value projects onto its value.  So
    the carrier as the one block decides t/theta, and range(n) rho's blocks."""
    for ident in spec.identities:
        relates = ident.relates
        for block in blocks:
            if not relates(t.add, t.mul, block, labels):
                return False
    return True


# ---------------------------------------------------------------------------
# Text format
#
# line 1: n.  Optional line of n names.  Then n rows of names for the +
# table (row = left operand), then n rows for the . table.  A blank line
# conventionally separates the tables; blank lines are not significant.

def parse_semiring_text(text: str) -> SemiringTable:
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines:
        raise SemiringFormatError("empty input")
    if len(lines[0]) != 1:
        raise SemiringFormatError("first line must be the order")
    try:
        n = int(lines[0][0])
    except ValueError:
        raise SemiringFormatError("first line must be the order")
    if n < 1:
        raise SemiringFormatError("order must be positive")
    body = lines[1:]
    if len(body) == 2 * n + 1:
        names = body[0]
        body = body[1:]
    elif len(body) == 2 * n:
        names = _default_names(n)
    else:
        raise SemiringFormatError(
            "expected %d or %d content lines after the order, got %d"
            % (2 * n, 2 * n + 1, len(body)))
    index = {name: i for i, name in enumerate(names)}
    if len(index) != n or len(names) != n:  # before the rows are read by name
        raise SemiringFormatError("need %d distinct element names" % n)

    def decode(rows):
        out = []
        for row in rows:
            for tok in row:
                if tok not in index:
                    raise SemiringFormatError("unknown element name %r" % tok)
            out.append([index[tok] for tok in row])
        return out

    return SemiringTable.from_rows(decode(body[:n]), decode(body[n:]), names)


def format_semiring_text(t: SemiringTable) -> str:
    lines = [str(t.order), " ".join(t.names)]
    for table in (t.add, t.mul):
        if table is t.mul:
            lines.append("")
        for row in table:
            lines.append(" ".join(t.names[v] for v in row))
    return "\n".join(lines) + "\n"

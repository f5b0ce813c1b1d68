"""Finite idempotent semirings as Cayley tables, plus terms and identities.

Elements are 0-based indices; the ``names`` field is display-only.  Tables
are immutable after construction and validation is explicit: nothing is
assumed about a table until ``validate_semiring`` has been run on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, Union


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


def _relabel_rows(rows: Sequence[Sequence[int]], perm: Sequence[int]
                  ) -> Tuple[Tuple[int, ...], ...]:
    """The table `rows` under the bijection i -> perm[i]: cell (a, b) of
    the result is perm[rows[inv[a]][inv[b]]]."""
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple([tuple([perm[rows[a][b]] for b in inv]) for a in inv])


@dataclass(frozen=True)
class SemiringTable:
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
        if names is None:
            names = tuple("e%d" % i for i in range(n))
        else:
            names = tuple(names)
        if len(names) != n or len(set(names)) != n:
            raise SemiringFormatError("need %d distinct element names" % n)
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
        return SemiringTable(
            order=n,
            names=names,
            add=tuple(tuple(row) for row in add_rows),
            mul=tuple(tuple(row) for row in mul_rows),
        )

    def prod_of(self, elems: Sequence[int]) -> int:
        acc = elems[0]
        for e in elems[1:]:
            acc = self.mul[acc][e]
        return acc

    def relabel(self, perm: Sequence[int]) -> "SemiringTable":
        """Apply the bijection i -> perm[i] to the carrier."""
        inv = sorted(range(self.order), key=perm.__getitem__)
        return SemiringTable(self.order, tuple(self.names[k] for k in inv),
                             _relabel_rows(self.add, perm),
                             _relabel_rows(self.mul, perm))

    def __repr__(self) -> str:
        return "SemiringTable(order=%d, names=%r)" % (self.order, list(self.names))


# ---------------------------------------------------------------------------
# Terms and identities

@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


Term = Union[Var, Add, Mul]


def term_max_var(term: Term) -> int:
    if isinstance(term, Var):
        return term.index
    return max(term_max_var(term.left), term_max_var(term.right))


@dataclass(frozen=True)
class Identity:
    """An ordered pair of terms; satisfied when both sides agree everywhere."""

    lhs: Term
    rhs: Term
    nvars: int

    def __post_init__(self):
        need = max(term_max_var(self.lhs), term_max_var(self.rhs)) + 1
        if self.nvars < need:
            raise PreconditionError("identity declares %d variables, uses %d"
                                    % (self.nvars, need))

    @cached_property
    def failures(self) -> Callable:
        """A generator function (add, mul, domain) yielding (assignment,
        lhs value, rhs value) for each assignment of values from domain
        on which the sides differ, in lexicographic order; compiled from
        the terms on first use."""
        return _compile(self)

    def __getstate__(self):
        # functions made by exec do not pickle; a copy compiles on first use
        return {k: v for k, v in self.__dict__.items() if k != "failures"}


def _compile(ident: Identity) -> Callable:
    """Identity.failures as nested loops over v0, v1, ... in D, each side
    written out as A[..][..] (+) and M[..][..] (.) lookups.  The source is
    built from the term trees alone."""
    def code(term: Term) -> str:
        if isinstance(term, Var):
            return "v%d" % term.index
        return "%s[%s][%s]" % ("A" if isinstance(term, Add) else "M",
                               code(term.left), code(term.right))

    k = ident.nvars
    names = "".join("v%d, " % d for d in range(k))
    inner = ["l, r = %s, %s" % (code(ident.lhs), code(ident.rhs)), "if l != r:",
             " yield (%s), l, r" % names]
    # Python nests at most 20 blocks; past that, one (slower) product loop
    loops = (["for v%d in D:" % d for d in range(k)] if k <= 20
             else ["for %sin product(D, repeat=%d):" % (names, k)])
    src = (["def failures(A, M, D):"]
           + [" " * (d + 1) + loop for d, loop in enumerate(loops)]
           + [" " * (len(loops) + 1) + line for line in inner])
    scope = {"product": itertools.product}
    exec("\n".join(src), scope)
    return scope["failures"]


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

@dataclass(frozen=True)
class ValidationReport:
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
        names = ["e%d" % i for i in range(n)]
    else:
        raise SemiringFormatError(
            "expected %d or %d content lines after the order, got %d"
            % (2 * n, 2 * n + 1, len(body)))
    if len(names) != n or len(set(names)) != n:
        raise SemiringFormatError("need %d distinct names" % n)
    index = {name: i for i, name in enumerate(names)}

    def decode(rows):
        out = []
        for row in rows:
            if len(row) != n:
                raise SemiringFormatError("table row %r is not length %d" % (row, n))
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

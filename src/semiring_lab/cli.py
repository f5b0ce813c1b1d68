"""Command-line surface: analyze, verify, enumerate, decompose, explore-sigma.

JSON reports go to stdout, a short human summary to stderr.  Exit codes:
0 success, 2 parse error (also unreadable input or unwritable output),
3 precondition violated (also a worker that cannot start), 4 budget
exhausted, 5 internal consistency failure (any failure a report lists,
as its input was validated: a verified theorem contradicted, or
analyze's eta routes disagreeing; or a worker that ends or cannot take
its next job -- always an implementation bug).

Reports are deterministic: byte-identical across runs and worker counts
for identical inputs.  Wall-clock timing is therefore reported on stderr
only; the JSON ``timing`` field is always null.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (CATALOG, BudgetExceededError, InternalConsistencyError,
                   PreconditionError, SemiringFormatError, format_semiring_text,
                   parse_semiring_text, validate_semiring)
from .relations import quasi_orders
from .congruences import least_dl_congruence, sigma_star
from .enumeration import (DEFAULT_NODE_BUDGET, DEFAULT_SECS_BUDGET, EnumConfig,
                          enumerate_idempotent_semirings, sweep)
from .varieties import THEOREMS, Analysis, judge_suite, malcev_product, spined_decompose

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def _digest(data: str) -> str:
    import hashlib  # here, which keeps it off the start-up path
    return "sha256:" + hashlib.sha256(data.encode()).hexdigest()


def _report(command: str, input_digest: str, results, failures: List) -> Dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "input_digest": input_digest,
        "results": results,
        "failures": failures,
        "timing": None,  # elapsed time goes to stderr only
    }


def _emit(report: Dict, summary: str, started: float) -> int:
    import json  # here, as enumerate writes no report
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    print("%s (%.2fs)" % (summary, time.monotonic() - started), file=sys.stderr)
    return EXIT_OK if not report["failures"] else EXIT_INTERNAL


def _parse_filter(text: Optional[str]):
    """A variety name, or a right-nested Malcev product like LZ_dot:D, as
    the tuple of its catalog names."""
    return None if text is None else malcev_product(*text.split(":"))


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SemiringFormatError("cannot read input: %s" % exc) from exc


def _configs(args) -> List[EnumConfig]:
    if args.max_order < 1:
        raise PreconditionError("--max-order must be >= 1")
    # every order's bounds are checked before any enumeration starts
    return [EnumConfig(order=n, up_to_iso=args.iso, budget_nodes=args.budget_nodes,
                       budget_secs=args.budget_secs) for n in range(1, args.max_order + 1)]


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args, started: float) -> int:
    text = _read_input(args.file)
    t = parse_semiring_text(text)
    names = t.names
    report = validate_semiring(t)
    validation = {
        "is_semiring": report.is_semiring,
        "is_idempotent_semiring": report.is_idempotent_semiring,
        "violations": [[axiom, list(w)] for axiom, w in report.violations],
    }
    if not report.is_idempotent_semiring:
        out = _report("analyze", _digest(text), {"validation": validation},
                      [{"reason": "not an idempotent semiring"}])
        _emit(out, "analyze: FAILED validation", started)
        return EXIT_PRECONDITION

    # validated above, so green_mult's and green_add's band checks are skipped
    a = Analysis(t)
    g = a.green
    sig_star = sigma_star(t)
    etas = {"meet_oracle": least_dl_congruence(t, "meet_oracle"),
            "sigma_closure": a.eta, "sigma_star": sig_star.to_partition()}
    agree = len({p.labels for p in etas.values()}) == 1
    results = {
        "order": t.order,
        "names": list(names),
        "validation": validation,
        "green_mult": {k: g[k + "_dot"].to_json(names) for k in "LRD"},
        "green_add": {k: g[k + "_plus"].to_json(names) for k in "LRD"},
        "quasi_orders": dict(zip(
            ("le_l_add", "le_r_add", "le_l_mul", "le_r_mul", "le_add", "le_mul"),
            (q.to_json(names) for q in quasi_orders(t)))),
        "sigma": {"pairs": a.sigma.to_json(names), "transitive": a.sigma_transitive},
        "sigma_star": {"pairs": sig_star.to_json(names)},
        "eta": {m: p.to_json(names) for m, p in etas.items()},
        "eta_methods_agree": agree,
        "varieties": {name: a.member(name) for name in sorted(CATALOG)},
    }
    failures = [] if agree else [{"reason": "eta methods disagree"}]
    out = _report("analyze", _digest(text), results, failures)
    summary = "ok" if agree else "FAILED, eta methods disagree"
    return _emit(out, "analyze: %s, order %d" % (summary, t.order), started)


# ---------------------------------------------------------------------------
# verify

def _verify_one(suite: Tuple[str, ...], a: Analysis) -> tuple:
    """The (theorem, conditions) of each theorem of the suite that a's table
    contradicts: its class's, as every condition reads + and . alone."""
    return tuple((tid, conditions) for tid, (_, conditions, consistent)
                 in zip(suite, judge_suite(a, suite)) if not consistent)


def cmd_verify(args, started: float) -> int:
    if args.suite == "all":
        suite = tuple(sorted(THEOREMS))
    elif args.suite in THEOREMS:
        suite = (args.suite,)
    else:
        raise PreconditionError("unknown suite %r; known: all, %s"
                                % (args.suite, ", ".join(sorted(THEOREMS))))
    instances, failures = 0, []
    for instances, (n, index, t, found) in enumerate(sweep(
            _configs(args), args.workers, lambda a: _verify_one(suite, a)), 1):
        failures += [{"theorem": tid, "conditions": dict(conditions), "order": n,
                      "index": index, "semiring": format_semiring_text(t)}
                     for tid, conditions in found]
    results = {
        "suite": list(suite),
        "max_order": args.max_order,
        "up_to_iso": args.iso,
        "instances": instances,
        "checks": instances * len(suite),
        "inconsistencies": len(failures),
    }
    params = "suite=%s max_order=%d iso=%s" % (args.suite, args.max_order, args.iso)
    out = _report("verify", _digest(params), results, failures)
    return _emit(out, "verify: %d instances, %d checks, %d inconsistencies"
                 % (instances, results["checks"], len(failures)), started)


# ---------------------------------------------------------------------------
# enumerate

def _record_path(out: str, width: int, index: int) -> str:
    return os.path.join(out, "semiring_%0*d.txt" % (width, index))


def cmd_enumerate(args, started: float) -> int:
    cfg = EnumConfig(order=args.n, up_to_iso=args.iso,
                     filter=_parse_filter(args.filter),
                     budget_nodes=args.budget_nodes,
                     budget_secs=args.budget_secs)
    stream = enumerate_idempotent_semirings(cfg)
    if args.count_only:
        count = sum(1 for _ in stream)
        print(count)
        print("enumerate: %d semirings of order %d" % (count, args.n),
              file=sys.stderr)
        return EXIT_OK
    # records are written as they arrive (on exit 4, a prefix of the stream),
    # files at width 4, renamed on any exit if the count written is wider
    count = 0
    if args.out:  # before any search: records of two runs must not mix
        os.makedirs(args.out, exist_ok=True)
        if os.listdir(args.out):
            raise SemiringFormatError("cannot write output: %s is not empty" % args.out)
    try:
        for t in stream:
            rec = format_semiring_text(t)
            if args.out:
                with open(_record_path(args.out, 4, count), "w") as fh:
                    fh.write(rec)
            else:
                sys.stdout.write(rec if count == 0 else "%%\n" + rec)
            count += 1
    finally:
        width = len(str(count))
        if args.out and width > 4:
            for i in range(count):
                os.rename(_record_path(args.out, 4, i), _record_path(args.out, width, i))
    if args.out:
        print("enumerate: wrote %d files to %s" % (count, args.out), file=sys.stderr)
    else:
        print("enumerate: %d semirings of order %d" % (count, args.n),
              file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose

def cmd_decompose(args, started: float) -> int:
    text = _read_input(args.file)
    t = parse_semiring_text(text)
    if not validate_semiring(t).is_idempotent_semiring:
        raise PreconditionError("input is not an idempotent semiring")
    decomp = spined_decompose(t)
    results = {
        "s1": format_semiring_text(decomp.s1),
        "s2": format_semiring_text(decomp.s2),
        "spine": format_semiring_text(decomp.d),
        "phi1": list(decomp.phi1),
        "phi2": list(decomp.phi2),
        "theta": [list(pair) for pair in decomp.theta],
    }
    out = _report("decompose", _digest(text), results, [])
    return _emit(out, "decompose: |S1|=%d |S2|=%d |D|=%d"
                 % (decomp.s1.order, decomp.s2.order, decomp.d.order), started)


# ---------------------------------------------------------------------------
# explore-sigma

def _sigma_row(a: Analysis) -> Dict:
    return {"sigma_transitive": a.sigma_transitive, "in_N": a.member("N"),
            "sigma_is_eta": a.sigma_is_eta}


def cmd_explore_sigma(args, started: float) -> int:
    rows = [dict(row, order=n, index=index)  # one row per table, its class's
            for n, index, _, row in sweep(_configs(args), 1, _sigma_row)]
    instances = len(rows)
    keys = ("sigma_transitive", "in_N", "sigma_is_eta")
    cross = Counter(tuple(row[k] for k in keys) for row in rows)
    cross_table = [dict(zip(keys, k), count=v) for k, v in sorted(cross.items())]
    results = {
        "max_order": args.max_order,
        "up_to_iso": args.iso,
        "instances": instances,
        "rows": rows,
        "cross_table": cross_table,
    }
    params = "max_order=%d iso=%s" % (args.max_order, args.iso)
    out = _report("explore-sigma", _digest(params), results, [])
    return _emit(out, "explore-sigma: %d instances, %d cross-table cells"
                 % (instances, len(cross_table)), started)


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiring-lab",
        description="Finite-algebra workbench for idempotent semirings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
        p.add_argument("--budget-secs", type=float, default=DEFAULT_SECS_BUDGET)

    p = sub.add_parser("analyze", help="full report for one semiring file")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="check theorem suites over all "
                                      "enumerated semirings")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--iso", action="store_true",
                   help="one representative per isomorphism class")
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="stream all idempotent semirings "
                                         "of one order")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--iso", action="store_true")
    p.add_argument("--filter", help="variety name or V:W (Malcev product, "
                                    "right-nested)")
    sink = p.add_mutually_exclusive_group()  # a count writes no files
    sink.add_argument("--count-only", action="store_true")
    sink.add_argument("--out", help="write one text file per semiring here")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="spined-product decomposition of a "
                                         "D_dot member")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("explore-sigma", help="where is sigma itself already "
                                             "the least d.l. congruence?")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--iso", action="store_true")
    common(p)
    p.set_defaults(func=cmd_explore_sigma)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.monotonic()
    try:
        try:
            args = _build_parser().parse_args(argv)
            return args.func(args, started)
        finally:  # a reader that has gone shows here, not at exit
            sys.stdout.flush()
    except OSError as exc:  # _read_input maps its own: this is the output
        if isinstance(exc, BrokenPipeError):  # so exit's flush writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("parse error: cannot write output: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except SemiringFormatError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    # the modules, catalog and classes the imports built live until exit or
    # a fork, so they go to the permanent generation: no collection walks
    # them, in a sweep or at shutdown.  main() leaves its callers' gc alone
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

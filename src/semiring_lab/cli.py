"""Command-line surface: analyze, verify, enumerate, decompose, explore-sigma.

JSON reports go to stdout, a short human summary to stderr.  Exit codes:
0 success, 2 parse error (also unreadable input or unwritable output),
3 precondition violated, 4 budget exhausted, 5 internal consistency
failure (a verified theorem contradicted -- always an implementation bug).

Reports are deterministic: byte-identical across runs and worker counts
for identical inputs.  Wall-clock timing is therefore reported on stderr
only; the JSON ``timing`` field stays null unless --timing is passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (BudgetExceededError, InternalConsistencyError,
                   PreconditionError, SemiringFormatError, SemiringTable,
                   format_semiring_text, parse_semiring_text, validate_semiring)
from .congruences import eta, least_dl_congruence, sigma, sigma_star
from .enumeration import (DEFAULT_NODE_BUDGET, DEFAULT_SECS_BUDGET, EnumConfig,
                          enumerate_idempotent_semirings)
from .relations import green_add, green_mult, quasi_orders
from .structure import spined_decompose
from .varieties import (CATALOG, THEOREMS, in_variety, malcev_product,
                        verify_theorem)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

MAX_WORKERS = 64


def _digest(data: str) -> str:
    return "sha256:" + hashlib.sha256(data.encode()).hexdigest()


def _report(command: str, input_digest: str, results, failures: List,
            timing: Optional[float]) -> Dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "input_digest": input_digest,
        "results": results,
        "failures": failures,
        "timing": timing,
    }


def _emit(report: Dict, summary: str, started: float, show_timing: bool) -> int:
    elapsed = time.monotonic() - started
    if show_timing:
        report["timing"] = round(elapsed, 3)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    print("%s (%.2fs)" % (summary, elapsed), file=sys.stderr)
    return EXIT_OK if not report["failures"] else EXIT_PRECONDITION


def _parse_filter(text: Optional[str]):
    """A variety name, or a right-nested Malcev product like LZ_dot:D."""
    return None if text is None else malcev_product(*text.split(":"))


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SemiringFormatError("cannot read input: %s" % exc) from exc


def _enumerate_orders(max_order: int, iso: bool, budget_nodes: int,
                      budget_secs: float) -> List[Tuple[int, int, SemiringTable]]:
    out = []
    for n in range(1, max_order + 1):
        cfg = EnumConfig(order=n, up_to_iso=iso, budget_nodes=budget_nodes,
                         budget_secs=budget_secs)
        for i, t in enumerate(enumerate_idempotent_semirings(cfg)):
            out.append((n, i, t))
    return out


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
                      [{"reason": "not an idempotent semiring"}], None)
        _emit(out, "analyze: FAILED validation", started, args.timing)
        return EXIT_PRECONDITION

    l_mul, r_mul, d_mul = green_mult(t)
    l_add, r_add, d_add = green_add(t)
    qorders = quasi_orders(t)
    sig = sigma(t)
    sig_star = sigma_star(t)
    etas = {m: least_dl_congruence(t, m) for m in
            ("meet_oracle", "sigma_closure", "sigma_star")}
    agree = len({p.labels for p in etas.values()}) == 1
    results = {
        "order": t.order,
        "names": list(names),
        "validation": validation,
        "green_mult": {"L": l_mul.to_json(names), "R": r_mul.to_json(names),
                       "D": d_mul.to_json(names)},
        "green_add": {"L": l_add.to_json(names), "R": r_add.to_json(names),
                      "D": d_add.to_json(names)},
        "quasi_orders": dict(zip(
            ("le_l_add", "le_r_add", "le_l_mul", "le_r_mul", "le_add", "le_mul"),
            (q.to_json(names) for q in qorders))),
        "sigma": {"pairs": sig.to_json(names), "transitive": sig.is_transitive()},
        "sigma_star": {"pairs": sig_star.to_json(names)},
        "eta": {m: p.to_json(names) for m, p in etas.items()},
        "eta_methods_agree": agree,
        "varieties": {name: in_variety(t, name) for name in sorted(CATALOG)},
    }
    failures = [] if agree else [{"reason": "eta methods disagree"}]
    out = _report("analyze", _digest(text), results, failures, None)
    return _emit(out, "analyze: ok, order %d" % t.order, started, args.timing)


# ---------------------------------------------------------------------------
# verify

def _verify_one(job: Tuple[int, int, SemiringTable, Tuple[str, ...]]) -> List[Dict]:
    n, index, t, suite = job
    failures = []
    for tid in suite:
        r = verify_theorem(t, tid)
        if not r.consistent:
            failures.append({
                "order": n,
                "index": index,
                "theorem": tid,
                "conditions": {label: val for label, val in r.conditions},
                "semiring": format_semiring_text(t),
            })
    return failures


def cmd_verify(args, started: float) -> int:
    if not 1 <= args.workers <= MAX_WORKERS:
        raise PreconditionError("--workers must be in 1..%d" % MAX_WORKERS)
    if args.suite == "all":
        suite = tuple(sorted(THEOREMS))
    elif args.suite in THEOREMS:
        suite = (args.suite,)
    else:
        raise PreconditionError("unknown suite %r; known: all, %s"
                                % (args.suite, ", ".join(sorted(THEOREMS))))
    tables = _enumerate_orders(args.max_order, args.iso,
                               args.budget_nodes, args.budget_secs)
    jobs = [(n, i, t, suite) for n, i, t in tables]
    if args.workers > 1:
        with multiprocessing.Pool(args.workers) as pool:
            chunks = pool.map(_verify_one, jobs)
    else:
        chunks = [_verify_one(job) for job in jobs]
    failures = [f for chunk in chunks for f in chunk]
    results = {
        "suite": list(suite),
        "max_order": args.max_order,
        "up_to_iso": args.iso,
        "instances": len(tables),
        "checks": len(tables) * len(suite),
        "inconsistencies": len(failures),
    }
    params = "suite=%s max_order=%d iso=%s" % (args.suite, args.max_order, args.iso)
    out = _report("verify", _digest(params), results, failures, None)
    code = _emit(out, "verify: %d instances, %d checks, %d inconsistencies"
                 % (len(tables), results["checks"], len(failures)),
                 started, args.timing)
    return EXIT_INTERNAL if failures else code


# ---------------------------------------------------------------------------
# enumerate

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
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise SemiringFormatError("cannot write output: %s" % exc) from exc
    records = [format_semiring_text(t) for t in stream]
    if args.out:
        width = max(4, len(str(len(records))))
        try:
            for i, rec in enumerate(records):
                path = os.path.join(args.out, "semiring_%0*d.txt" % (width, i))
                with open(path, "w") as fh:
                    fh.write(rec)
        except OSError as exc:
            raise SemiringFormatError("cannot write output: %s" % exc) from exc
        print("enumerate: wrote %d files to %s" % (len(records), args.out),
              file=sys.stderr)
    else:
        sys.stdout.write("%%\n".join(records))
        print("enumerate: %d semirings of order %d" % (len(records), args.n),
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
    out = _report("decompose", _digest(text), results, [], None)
    return _emit(out, "decompose: |S1|=%d |S2|=%d |D|=%d"
                 % (decomp.s1.order, decomp.s2.order, decomp.d.order),
                 started, args.timing)


# ---------------------------------------------------------------------------
# explore-sigma

def cmd_explore_sigma(args, started: float) -> int:
    tables = _enumerate_orders(args.max_order, args.iso,
                               args.budget_nodes, args.budget_secs)
    rows = []
    cross: Dict[Tuple[bool, bool, bool], int] = {}
    for n, i, t in tables:
        rel = sigma(t)
        transitive = rel.is_transitive()
        in_n = in_variety(t, "N")
        sigma_is_eta = transitive and rel.to_partition() == eta(t)
        rows.append({"order": n, "index": i, "sigma_transitive": transitive,
                     "in_N": in_n, "sigma_is_eta": sigma_is_eta})
        key = (transitive, in_n, sigma_is_eta)
        cross[key] = cross.get(key, 0) + 1
    cross_table = [{"sigma_transitive": k[0], "in_N": k[1],
                    "sigma_is_eta": k[2], "count": v}
                   for k, v in sorted(cross.items())]
    results = {
        "max_order": args.max_order,
        "up_to_iso": args.iso,
        "instances": len(tables),
        "rows": rows,
        "cross_table": cross_table,
    }
    params = "max_order=%d iso=%s" % (args.max_order, args.iso)
    out = _report("explore-sigma", _digest(params), results, [], None)
    return _emit(out, "explore-sigma: %d instances, %d cross-table cells"
                 % (len(tables), len(cross_table)), started, args.timing)


# ---------------------------------------------------------------------------

def _env_number(name: str, convert, default):
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError:
        raise SemiringFormatError("environment variable %s=%r is not a valid %s"
                                  % (name, text, convert.__name__)) from None


def _build_parser() -> argparse.ArgumentParser:
    env_max_order = _env_number("SEMIRING_LAB_MAX_ORDER", int, 3)
    env_budget_secs = _env_number("SEMIRING_LAB_BUDGET_SECS", float,
                                  DEFAULT_SECS_BUDGET)
    parser = argparse.ArgumentParser(
        prog="semiring-lab",
        description="Finite-algebra workbench for idempotent semirings.")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the JSON report "
                             "(off by default to keep reports byte-stable)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
        p.add_argument("--budget-secs", type=float, default=env_budget_secs)

    p = sub.add_parser("analyze", help="full report for one semiring file")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="check theorem suites over all "
                                      "enumerated semirings")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-order", type=int, default=env_max_order)
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
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", help="write one text file per semiring here")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="spined-product decomposition of a "
                                         "D_dot member")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("explore-sigma", help="where is sigma itself already "
                                             "the least d.l. congruence?")
    p.add_argument("--max-order", type=int, default=env_max_order)
    p.add_argument("--iso", action="store_true")
    common(p)
    p.set_defaults(func=cmd_explore_sigma)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args, started)
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
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

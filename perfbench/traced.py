"""Traced passes over one benchmark workload; run.py starts each in a fresh
process, because sigma, sigma_star, eta, all_congruences and quotients are
cached for the life of the process.

    python traced.py pipeline '<workload json>'
    python traced.py probe '<workload json>'

pipeline: what the CLI does, through the same public API, inside a root span
    "cli": enumerate_idempotent_semirings per order, then (verify) every
    theorem per instance in sorted-suite order, pooled like the CLI when
    workers > 1.  An enumerate workload gets that sweep too, as a separate
    root span off the CLI path.
probe: the labelled stream of the top order with canonical_form timed on
    each table, then every public layer function once per instance in
    dependency order.

Prints {"spans": [[name, start, end, parent index], ...], "counts": {...}}.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from contextlib import contextmanager
from typing import List, Tuple

from semiring_lab import (CATALOG, THEOREMS, EnumConfig, all_congruences,
                          canonical_form, enumerate_idempotent_semirings, eta,
                          green_add, green_mult, in_variety, malcev_membership,
                          quasi_orders, sigma, sigma_star, validate_semiring,
                          verify_theorem)
from semiring_lab.cli import _parse_filter

# The Malcev products the theorem catalog gates on, in --filter syntax.
MALCEV_PRODUCTS = ("R_plus:D", "LZ_plus:D", "LZ_dot:D", "RZ_dot:D",
                   "RB:LZ_plus:D", "RB:RZ_plus:D")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open.pop()][2] = time.perf_counter()

    def graft(self, spans: List[list]) -> None:
        """Append spans recorded by another tracer under the open span."""
        base, parent = len(self.spans), self._open[-1] if self._open else -1
        self.spans.extend([name, start, end, parent if p < 0 else p + base]
                          for name, start, end, p in spans)


def _config(spec: dict, order: int, iso: bool) -> EnumConfig:
    return EnumConfig(order=order, up_to_iso=iso, budget_nodes=spec["budget_nodes"],
                      budget_secs=spec["budget_secs"])


def _stream(tr: Tracer, spec: dict, orders) -> list:
    instances = []
    with tr.span("enumeration.stream"):
        for n in orders:
            stream = enumerate_idempotent_semirings(_config(spec, n, spec["iso"]))
            while True:
                with tr.span("enumeration.next"):
                    t = next(stream, None)
                if t is None:
                    break
                instances.append(t)
    return instances


def sweep_one(job) -> Tuple[List[list], int]:
    t, suite = job
    tr = Tracer()
    bad = 0
    with tr.span("varieties.instance"):
        for tid in suite:
            with tr.span("varieties.verify_theorem." + tid):
                bad += not verify_theorem(t, tid).consistent
    return tr.spans, bad


def _sweep(tr: Tracer, instances: list, suite: Tuple[str, ...], workers: int) -> int:
    jobs = [(t, suite) for t in instances]
    with tr.span("varieties.sweep"):
        if workers > 1:
            with multiprocessing.get_context("spawn").Pool(workers) as pool:
                results = pool.map(sweep_one, jobs)
        else:
            results = [sweep_one(job) for job in jobs]
        for spans, _ in results:
            tr.graft(spans)
    return sum(bad for _, bad in results)


def pipeline(spec: dict) -> Tuple[List[list], dict]:
    tr = Tracer()
    suite = tuple(sorted(THEOREMS))
    top = spec["max_order"]
    verify = spec["command"] == "verify"
    with tr.span("cli"):
        instances = _stream(tr, spec, range(1, top + 1) if verify else [top])
        if verify:
            bad = _sweep(tr, instances, suite, spec["workers"])
    if not verify:
        bad = _sweep(tr, instances, suite, spec["workers"])
    return tr.spans, {"emitted": len(instances), "checks": len(instances) * len(suite),
                      "inconsistencies": bad, "theorems": list(suite)}


def probe(spec: dict) -> Tuple[List[list], dict]:
    tr = Tracer()
    top, iso = spec["max_order"], spec["iso"]
    with tr.span("enumeration.labelled"):
        labelled = list(enumerate_idempotent_semirings(_config(spec, top, False)))
    forms = []
    for t in labelled:
        with tr.span("enumeration.canonical_form"):
            forms.append(canonical_form(t))
    # The workload's own instances, rebuilt without re-running the top order:
    # the iso stream is the labelled stream filtered to canonical tables.
    instances = [t for n in range(1, top) if spec["command"] == "verify"
                 for t in enumerate_idempotent_semirings(_config(spec, n, iso))]
    instances += [t for t, c in zip(labelled, forms) if c == t] if iso else labelled

    products = [_parse_filter(text) for text in MALCEV_PRODUCTS]
    lattice = members = 0
    for t in instances:
        with tr.span("probe.instance"):
            with tr.span("core.validate_semiring"):
                validate_semiring(t)
            with tr.span("relations.green"):
                green_mult(t)
                green_add(t)
            with tr.span("relations.quasi_orders"):
                quasi_orders(t)
            with tr.span("congruences.sigma"):
                sigma(t)
            with tr.span("congruences.sigma_star"):
                sigma_star(t)
            with tr.span("congruences.eta"):
                eta(t)
            with tr.span("congruences.all_congruences"):
                lattice += len(all_congruences(t))
            for name in sorted(CATALOG):
                with tr.span("varieties.in_variety"):
                    in_variety(t, name)
            for expr in products:
                with tr.span("structure.malcev_membership"):
                    members += malcev_membership(t, expr)[0]
    return tr.spans, {"labelled": len(labelled), "classes": len(set(forms)),
                      "instances": len(instances), "lattice_size_total": lattice,
                      "malcev_members": members}


if __name__ == "__main__":
    spans, counts = {"pipeline": pipeline, "probe": probe}[sys.argv[1]](
        json.loads(sys.argv[2]))
    json.dump({"spans": spans, "counts": counts}, sys.stdout)

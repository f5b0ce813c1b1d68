import errno
import gc
import hashlib
import json
import os
import pickle
import random
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semiring_lab
from semiring_lab import cli, congruences, enumeration, varieties
from semiring_lab.cli import main
from semiring_lab.enumeration import EnumConfig, _Budget, bands, completions, sweep

from conftest import GOLDEN3_TEXT, relabel_seeded


@pytest.fixture()
def golden3_file(tmp_path):
    path = tmp_path / "golden3.txt"
    path.write_text(GOLDEN3_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_golden(capsys, golden3_file):
    code, out, err = run(capsys, "analyze", golden3_file)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    results = report["results"]
    assert results["sigma"]["transitive"] is False
    pairs = {tuple(p) for p in results["sigma"]["pairs"]}
    assert {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")} <= pairs
    assert ("a", "c") not in pairs
    assert results["sigma_star"]["pairs"] == sorted(
        [x, y] for x in "abc" for y in "abc")
    assert results["eta_methods_agree"] is True
    assert results["eta"]["sigma_star"] == [["a", "b", "c"]]
    assert results["varieties"]["N"] is False


def test_analyze_order1(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1\ne\ne\n\ne\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["eta_methods_agree"] is True
    assert results["green_mult"]["D"] == [["e"]]


def test_analyze_dl2_memberships(capsys, tmp_path):
    path = tmp_path / "dl2.txt"
    path.write_text("2\n0 1\n0 1\n1 1\n\n0 0\n0 1\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    varieties = json.loads(out)["results"]["varieties"]
    assert varieties["D"] is True
    for name in ("D_dot", "L_dot", "R_dot", "N"):
        assert varieties[name] is True


def test_analyze_parse_failure(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a semiring\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("2\na a\na a\na a\n\na a\na a\n", "need 2 distinct element names"),
    # a repeated name, though the rows name an element it leaves out
    ("2\na a\na b\nb b\n\na b\nb b\n", "need 2 distinct element names"),
    ("2\na b\na b\nb\n\na a\nb b\n", "add table is not 2 x 2"),
])
def test_analyze_malformed_table(capsys, tmp_path, text, message):
    # the text format decides the order and names lines, and refuses
    # repeated names before it reads the rows by them; the table's shape
    # is from_rows' to refuse
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert "parse error: " + message in err


def test_analyze_missing_file(capsys):
    code, _, _ = run(capsys, "analyze", "/nonexistent/file.txt")
    assert code == 2


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_unreadable_input(capsys, tmp_path, command):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"3\n\xff\xfe\n")
    for path in (tmp_path, binary):
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert "cannot read input" in err


# near-misses of the text format as well as raw bytes
_TOKENS = ["1", "2", "3", "0", "-1", "a", "b", "c", "e0", "e1", "a a", "\n",
           " ", "\t", "\r\n", "\xff", "\u2028", "\x00"]
_INPUTS = st.one_of(
    st.binary(max_size=120),
    st.lists(st.sampled_from(_TOKENS), max_size=40).map(
        lambda parts: "".join(parts).encode()),
    st.sampled_from([GOLDEN3_TEXT, "2\n0 1\n0 1\n1 1\n\n0 0\n0 1\n"]).flatmap(
        lambda text: st.tuples(st.integers(0, len(text)), st.binary(max_size=4)).map(
            lambda cut: (text[:cut[0]].encode() + cut[1] + text[cut[0]:].encode()))))


@pytest.mark.parametrize("command", ["analyze", "decompose"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_INPUTS)
def test_arbitrary_input_exits_by_contract(capsys, tmp_path, command, data):
    # any file content: a result, a parse error or a precondition, never
    # a traceback
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    code, _, _ = run(capsys, command, str(path))
    assert code in (0, 2, 3)


def test_environment_sets_no_run_setting(capsys, monkeypatch):
    # flags alone set a run: variables named like settings change nothing
    monkeypatch.setenv("SEMIRING_LAB_MAX_ORDER", "abc")
    monkeypatch.setenv("SEMIRING_LAB_BUDGET_SECS", "nan")
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert json.loads(out)["results"]["instances"] == 396


def test_analyze_invalid_algebra(capsys, tmp_path):
    path = tmp_path / "notidem.txt"
    # aa = b breaks multiplicative idempotency
    path.write_text("2\na b\na b\nb b\n\nb b\nb b\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 3
    report = json.loads(out)
    assert report["failures"]


def test_verify_clean_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-order", "2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["inconsistencies"] == 0
    assert report["results"]["instances"] == 17


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "THM_3_1", "--max-order", "2")
    assert code == 0
    assert json.loads(out)["results"]["suite"] == ["THM_3_1"]


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "THM_NOPE", "--max-order", "2")
    assert code == 3


# sha256 of `verify --max-order 4 --iso` stdout, frozen from one worker
# while every instance was still listed before the sweep began
VERIFY_ISO4_SHA256 = (
    "9ea8491842e5ea875c8a9862ca5d3ced2e9c04694d8f38c8901b600202857e7f")


def test_verify_worker_determinism(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "all", "--max-order", "2",
                     "--workers", "1")
    _, out2, _ = run(capsys, "verify", "--suite", "all", "--max-order", "2",
                     "--workers", "4")
    assert out1 == out2
    # 46 order-4 bands, each one job, through the pool and in-process
    for workers in ("1", "2", "3"):
        code, out, _ = run(capsys, "verify", "--max-order", "4", "--iso",
                           "--workers", workers)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ISO4_SHA256


def test_analyze_eta_disagreement_is_an_internal_failure(capsys, monkeypatch,
                                                         golden3_file):
    # eta is universal on the golden example: an equality from one route
    # is a failed self-check, exit 5, reported in full
    monkeypatch.setattr(cli, "least_dl_congruence",
                        lambda t, method: semiring_lab.Partition.equality(t.order))
    code, out, err = run(capsys, "analyze", golden3_file)
    assert code == 5
    report = json.loads(out)
    assert report["failures"] == [{"reason": "eta methods disagree"}]
    assert report["results"]["eta_methods_agree"] is False
    assert err.startswith("analyze: FAILED, eta methods disagree, order 3")


def _fails_on_some_tables(a):
    # a stand-in theorem that is contradicted on about one table in five
    return [("stand_in", sum(map(sum, a.t.mul)) % 5 != 1)]


def test_verify_failures_keep_stream_order_for_any_worker_count(capsys, monkeypatch):
    # patched before the pool is made, so its forked workers see it too
    monkeypatch.setitem(varieties.THEOREMS, "THM_2_5",
                        ("implication", _fails_on_some_tables))
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--suite", "THM_2_5", "--max-order",
                           "4", "--iso", "--workers", workers)
        assert code == 5
        outs.append(out)
    assert outs[0] == outs[1]
    failures = json.loads(outs[0])["failures"]
    by_order = {n: semiring_lab.all_idempotent_semirings(n, up_to_iso=True)
                for n in (1, 2, 3, 4)}
    assert {f["order"] for f in failures} == {2, 3, 4}
    positions = [(f["order"], f["index"]) for f in failures]
    assert positions == sorted(set(positions))  # orders, then indices, rise
    expected = [(n, i) for n, ts in by_order.items() for i, t in enumerate(ts)
                if not _fails_on_some_tables(varieties.Analysis(t))[0][1]]
    assert positions == expected
    for f in failures:  # each index counts the tables of its order
        assert f["semiring"] == semiring_lab.format_semiring_text(
            by_order[f["order"]][f["index"]])


def _fails_on_one_class(target):
    # a stand-in theorem contradicted on the tables isomorphic to target
    return ("implication", lambda a: [
        ("stand_in", semiring_lab.canonical_form(a.t) != target), ("holds", True)])


def test_labelled_verify_lists_each_table_of_a_failing_class(capsys, monkeypatch,
                                                             labeled_by_order):
    # a class is judged once, yet each of its labelled tables is listed with
    # its own text and index, in the same bytes for 1 and 2 workers
    labelled = labeled_by_order[3]
    forms = [semiring_lab.canonical_form(t) for t in labelled]
    target = next(f for f in forms if forms.count(f) == 6)  # no automorphism
    monkeypatch.setitem(varieties.THEOREMS, "THM_2_5", _fails_on_one_class(target))
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--max-order", "3", "--workers", workers)
        assert code == 5
        outs.append(out)
    assert outs[1] == outs[0]
    failures = json.loads(outs[0])["failures"]
    assert [f["index"] for f in failures] == [i for i, f in enumerate(forms) if f == target]
    assert len({f["semiring"] for f in failures}) == 6
    for f in failures:
        assert f == {"theorem": "THM_2_5", "conditions": {"stand_in": False, "holds": True},
                     "order": 3, "index": f["index"],
                     "semiring": semiring_lab.format_semiring_text(labelled[f["index"]])}


def test_the_verdicts_of_a_sweep_end_with_it(capsys, monkeypatch, labeled_by_order):
    # a second sweep of the classes the first judged clean, under a stand-in
    # theorem, judges them again, also when both sweeps end at one order
    for n, index in ((1, 0), (3, 7)):
        code, out, _ = run(capsys, "verify", "--max-order", str(n))
        assert code == 0 and json.loads(out)["results"]["inconsistencies"] == 0
        target = semiring_lab.canonical_form(labeled_by_order[n][index])
        with monkeypatch.context() as patched:
            patched.setitem(varieties.THEOREMS, "THM_2_5", _fails_on_one_class(target))
            code, out, _ = run(capsys, "verify", "--max-order", str(n))
        assert code == 5
        assert [(f["order"], f["index"]) for f in json.loads(out)["failures"]] == [
            (n, i) for i, t in enumerate(labeled_by_order[n])
            if semiring_lab.canonical_form(t) == target]


def test_verify_judges_each_class_once_per_sweep(capsys, monkeypatch, iso_small):
    # 92 classes up to order 3, labelled or not, and again in a second sweep
    judged = []
    judge = cli.judge_suite
    monkeypatch.setattr(cli, "judge_suite",
                        lambda a, suite: (judged.append((a.t.add, a.t.mul)), judge(a, suite))[1])
    for argv in (("--max-order", "3"), ("--max-order", "3"), ("--max-order", "3", "--iso")):
        del judged[:]
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert judged == [(t.add, t.mul) for t in iso_small]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_verify_node_budget_is_per_order(capsys, workers):
    # an order's budget covers its band search and all its . searches; at
    # --max-order 3 the largest is order 3's, 502 nodes
    budget = _Budget(10 ** 6, 60.0)
    for add, auts in bands(3, budget):
        for _ in completions(add, auts, budget):
            pass
    assert 10 ** 6 - budget.nodes_left == 502
    argv = ["verify", "--max-order", "3", "--iso", "--suite", "THM_2_5",
            "--workers", workers, "--budget-nodes"]
    # the parent dispatches every job and charges every result from one
    # thread, so the count it charges against has one writer
    code, out, _ = run(capsys, *argv, "502")
    assert code == 0 and json.loads(out)["results"]["instances"] == 92
    code, out, err = run(capsys, *argv, "501")
    assert code == 4 and out == ""
    assert "node budget exhausted" in err and "Traceback" not in err
    assert_no_child()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_order_over_budget_raises_before_a_later_order_yields(workers):
    # order 3 spends 502 nodes in all, so 498 run out within it: the sweep
    # raises before any order-4 table, however far the band search has run
    # ahead of the jobs' charges.  Labelled, 700 nodes end order 3 after the
    # 502 of its iso search and 191 tables, at a labelled band's end
    for iso, nodes in ((True, 498), (False, 700)):
        orders = Counter()
        stream = sweep([EnumConfig(3, iso, budget_nodes=nodes), EnumConfig(4, iso)],
                       workers, None)
        with pytest.raises(semiring_lab.BudgetExceededError, match="node budget exhausted"):
            for n, _, _, _ in stream:
                orders[n] += 1
        assert orders[4] == 0 and (iso or orders[3] == 191)
        assert_no_child()


def assert_no_child():
    # neither a live child nor an unreaped one: the farm reaps its workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_verify_leaves_no_live_child(capsys):
    code, _, _ = run(capsys, "verify", "--max-order", "3", "--iso",
                     "--workers", "2")
    assert code == 0
    assert_no_child()


def _raises_on_some_order4_tables(a):
    # a stand-in theorem that fails its self-check on about one order-4
    # table in five, naming the table
    if a.t.order == 4 and sum(map(sum, a.t.mul)) % 5 == 1:
        raise semiring_lab.InternalConsistencyError(repr((a.t.add, a.t.mul)))
    return [("stand_in", True)]


def _slow_on_first_band(monkeypatch, n, secs):
    # patched before the workers are forked, so they see it too
    first = next(bands(n, _Budget(10 ** 6, 60.0)))[0]
    band_job = enumeration._band_job

    def slow_on_first(check, job):
        if job[1] == first:
            time.sleep(secs)
        return band_job(check, job)

    monkeypatch.setattr(enumeration, "_band_job", slow_on_first)


def test_worker_exception_is_raised_at_its_place_in_the_stream(capsys, monkeypatch):
    # the first order-4 band's failure arrives after later bands' failures,
    # yet the error is the first failing table's in stream order
    monkeypatch.setitem(varieties.THEOREMS, "THM_2_5",
                        ("implication", _raises_on_some_order4_tables))
    _slow_on_first_band(monkeypatch, 4, 0.3)
    errs = []
    for workers in ("1", "2", "3"):
        code, out, err = run(capsys, "verify", "--suite", "THM_2_5", "--max-order",
                             "4", "--iso", "--workers", workers)
        assert code == 5 and out == "" and "Traceback" not in err
        assert_no_child()
        errs.append(err)
    assert errs[0].startswith("internal consistency failure: (((")
    assert errs[1] == errs[0] and errs[2] == errs[0]


def test_a_worker_killed_from_outside_ends_verify_with_exit_5(capsys, monkeypatch):
    band_job = enumeration._band_job

    def die_on_order3(check, job):
        if job[0] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return band_job(check, job)

    monkeypatch.setattr(enumeration, "_band_job", die_on_order3)
    code, out, err = run(capsys, "verify", "--max-order", "3", "--iso", "--workers", "2")
    assert code == 5 and out == ""
    assert "ended holding jobs" in err and "Traceback" not in err
    assert_no_child()


def test_a_worker_killed_with_a_job_queued_for_it_ends_verify_with_exit_5(capsys,
                                                                          monkeypatch):
    # a worker dies 50 ms after its first order-4 result, while the parent
    # spends 200 ms on each later order-4 band, then queues it a job
    band_job, search = enumeration._band_job, enumeration.bands

    def die_after_order4(check, job):
        out = band_job(check, job)
        if job[0] == 4 and signal.getitimer(signal.ITIMER_REAL)[0] == 0:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
        return out

    def slow_after_first_order4(n, budget):
        for k, band in enumerate(search(n, budget)):
            if n == 4 and k:
                time.sleep(0.2)
            yield band

    monkeypatch.setattr(enumeration, "_band_job", die_after_order4)
    monkeypatch.setattr(enumeration, "bands", slow_after_first_order4)
    code, out, err = run(capsys, "verify", "--max-order", "4", "--iso", "--workers", "2")
    assert code == 5 and out == ""
    assert "ended holding jobs" in err and "Traceback" not in err
    assert_no_child()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_band_searchs_own_exception_is_raised_at_its_place(monkeypatch, workers):
    # the band search raises after k order-4 bands, in next(jobs) rather
    # than in a job: the sweep yields the tables of order 3 and of those k
    # bands, then raises, and leaves no child
    search, k = enumeration.bands, 5
    cfgs = [EnumConfig(n, up_to_iso=True) for n in (3, 4)]
    first = [add for add, _ in search(4, _Budget(10 ** 7, 1800.0))][:k]
    serial = list(sweep(cfgs, 1, None))
    kept = [item for item in serial if item[0] == 3 or item[2].add in first]
    assert len({item[2].add for item in kept if item[0] == 4}) == k
    assert kept == serial[:len(kept)]

    def fail_after_k(n, budget):
        for i, band in enumerate(search(n, budget)):
            if n == 4 and i == k:
                raise ValueError("band search failed")
            yield band

    monkeypatch.setattr(enumeration, "bands", fail_after_k)
    stream = []
    with pytest.raises(ValueError, match="band search failed"):
        for item in sweep(cfgs, workers, None):
            stream.append(item)
    assert stream == kept
    assert_no_child()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_check_that_does_not_pickle_runs_on_workers(workers):
    # the workers are forked after the check is bound, so they inherit it:
    # neither a lambda nor a closure over local data is pickled; only each
    # job and each result cross the pipes
    cfgs = [EnumConfig(n, up_to_iso=True) for n in (1, 2, 3, 4)]
    weights = {v: 3 * v + 1 for v in range(4)}

    def weighed(a):
        return sum(weights[v] for row in a.t.mul for v in row)

    for check in (lambda a: a.t.mul, weighed):
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(check)
        serial = list(sweep(cfgs, 1, check))
        assert len(serial) == 927
        assert list(sweep(cfgs, workers, check)) == serial
        assert_no_child()


def test_closing_a_pooled_sweep_kills_and_reaps_its_workers(monkeypatch):
    band_job = enumeration._band_job

    def stall_after_order1(check, job):
        if job[0] > 1:
            time.sleep(60)
        return band_job(check, job)

    monkeypatch.setattr(enumeration, "_band_job", stall_after_order1)
    stream = sweep([EnumConfig(n, up_to_iso=True) for n in (1, 2, 3, 4)], 2, None)
    assert next(stream)[:2] == (1, 0)
    started = time.monotonic()
    stream.close()  # the workers hold stalled jobs: killed, not awaited
    assert time.monotonic() - started < 10
    assert_no_child()


def test_pooled_sweep_keeps_order_and_window_behind_a_slow_job(capsys, monkeypatch):
    # the first order-5 job sleeps while the other two workers could finish
    # every other band; the parent still yields the stream in order and
    # pulls at most _AHEAD * workers bands past the last result it yielded
    cfgs = [EnumConfig(n, up_to_iso=True) for n in (1, 2, 3, 4, 5)]
    serial = list(sweep(cfgs, 1, None))
    search = enumeration.bands
    pulled = Counter()

    def counted(n, budget):
        for band in search(n, budget):
            pulled[n] += 1
            yield band

    _slow_on_first_band(monkeypatch, 5, 1.0)
    monkeypatch.setattr(enumeration, "bands", counted)
    stream, seen = [], None
    for item in sweep(cfgs, 3, None):
        if item[0] == 5 and seen is None:
            seen = pulled[5]
        stream.append(item)
    assert stream == serial
    assert 1 <= seen <= enumeration._AHEAD * 3 < pulled[5] == 251
    assert_no_child()
    _slow_on_first_band(monkeypatch, 4, 0.3)
    code, out, _ = run(capsys, "verify", "--max-order", "4", "--iso", "--workers", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ISO4_SHA256
    assert_no_child()


def test_serial_verify_holds_no_instance_list(capsys):
    # the parent keeps one band's work at a time, not the 927 instances;
    # 1 375 KiB while they were listed first, about 520 KiB streamed, and
    # about 270 KiB since judging a class allocates less.  The peak counts
    # CPython's tuple free lists too: up to 2 000 freed tuples of each size
    # stay allocated, and the gc.collect() before tracing empties them, so
    # a change in allocation pattern alone can move the peak by hundreds
    # of KiB with no more tables held
    run(capsys, "verify", "--max-order", "3", "--iso")  # lazy set-up first
    gc.collect()
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "verify", "--max-order", "4", "--iso")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 768 * 1024, "peak %d KiB" % (peak // 1024)


# sha256 of labelled `verify --max-order 4` stdout, frozen from one worker
# while each labelled table was judged on its own
VERIFY_LAB4_SHA256 = (
    "886317d1bdcddab8d7c7056085204101bf2f2797ba4f606f2cfc719bda78efd1")


def test_labelled_verify_order4_is_frozen_and_holds_no_instance_list(capsys):
    # the results of the 835 order-4 classes, the band images and one
    # labelled band's tables stay well within the bound of the iso sweep:
    # about 700 KiB, and about 520 KiB since judging a class allocates less.
    # As above, the peak counts the tuple free lists, which an allocation
    # pattern alone can move by hundreds of KiB
    code, out, _ = run(capsys, "verify", "--max-order", "4", "--workers", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_LAB4_SHA256
    run(capsys, "verify", "--max-order", "3")  # lazy set-up first
    gc.collect()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--max-order", "4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_LAB4_SHA256
    assert json.loads(out)["results"]["checks"] == 279072
    assert peak <= 768 * 1024, "peak %d KiB" % (peak // 1024)


@pytest.mark.slow
def test_labelled_verify_order5_is_frozen(capsys):
    # about 7 s; digest frozen from the route that judged each labelled
    # table on its own.  Order 5 spends 141207 + 844129 nodes, within the
    # default 10 ** 7
    code, out, _ = run(capsys, "verify", "--max-order", "5")
    assert code == 0 and json.loads(out)["results"]["instances"] == 859633
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2de1f5d9f2cadbf72fe2f2b9ccfaef9fc65134d08dd2422a51e63624db937f77")


@pytest.mark.slow
def test_verify_order5_with_two_workers_is_frozen(capsys):
    # about 4 s on two cores; digest frozen from one worker while every
    # instance was still listed before the sweep began
    code, out, _ = run(capsys, "verify", "--max-order", "5", "--iso",
                       "--workers", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "45fefa69ef6853dd9e29350f31e88a10fa130d69cc15e0e11cedba5a1fc5bf2f")


@pytest.mark.slow
def test_verify_order6_is_frozen(capsys):
    # about 45 s on two cores; digest frozen from one worker while verify
    # and the library stream each had a search loop of their own
    code, out, _ = run(capsys, "verify", "--max-order", "6", "--iso",
                       "--workers", "2")
    assert code == 0 and json.loads(out)["results"]["instances"] == 130033
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a452d9491f51608f8f51dfe7bfd61146d3dd473cc6b071f5d3a42135ac489c43")


@pytest.mark.slow
def test_enumerate_order6_iso_is_frozen(capsys):
    # about 35 s; digest frozen while the library stream had a search loop
    # of its own
    code, out, _ = run(capsys, "enumerate", "-n", "6", "--iso")
    assert code == 0 and out.count("%%\n") + 1 == 119699
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bb76bf9c7976e3cba3d0c0b527800a1bbac72a3ec3cb8abbfcd8bd94fca85bee")
    del out
    code, out, _ = run(capsys, "enumerate", "-n", "6", "--iso", "--count-only")
    assert code == 0 and out == "119699\n"


@pytest.mark.parametrize("flags", [("--count-only", "--out", "{dir}"),
                                   ("--out", "{dir}", "--count-only")])
def test_enumerate_refuses_count_only_with_out(capsys, tmp_path, flags):
    # a count writes no files, so --out beside it is refused, not ignored
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-n", "2", *(f.format(dir=out_dir) for f in flags)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err
    assert not out_dir.exists()


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "3", "--count-only")
    assert code == 0
    assert out.strip() == "379"


def test_enumerate_iso4_stream_is_frozen(capsys):
    # digest of the stream as the canonical-form filter produced it
    code, out, _ = run(capsys, "enumerate", "-n", "4", "--iso")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3cd1401624e01657e56eb31622723e69ad9e81b9b6791d1bc98f2097d824c043")


def test_labelled_enumerate_filter_order4_is_frozen(capsys):
    # digest frozen while each labelled table was judged on its own
    code, out, _ = run(capsys, "enumerate", "-n", "4", "--filter", "D_dot")
    assert code == 0 and len(out.split("%%\n")) == 2220
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2778da9a8b9ade28eb0451723658fe55d69f93cd488e61686815d9af38ab027a")


def test_enumerate_filter_and_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--iso",
                       "--filter", "D_dot")
    assert code == 0
    records = out.split("%%\n")
    assert all(rec.startswith("2\n") for rec in records)


@pytest.mark.parametrize("product, classes, sha256", [
    ("LZ_dot:D", 73,
     "89fcc2db77e23fc66eea954dabb3ccdbf3601d185e7aeb6303fbf8c7e3d55e37"),
    ("RB:LZ_plus:D", 258,
     "73215c19d47b80a797300189f3735eaad21bcbaa240ff4f25d1cd0ea2da8a8b2"),
])
def test_enumerate_malcev_filter_is_frozen(capsys, product, classes, sha256):
    # digests frozen while Malcev membership had its own least-congruence route
    code, out, _ = run(capsys, "enumerate", "-n", "4", "--iso", "--filter", product)
    assert code == 0
    assert len(out.split("%%\n")) == classes
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_enumerate_to_directory(capsys, tmp_path):
    out_dir = str(tmp_path / "stream")
    code, _, _ = run(capsys, "enumerate", "-n", "2", "--out", out_dir)
    assert code == 0
    assert len(os.listdir(out_dir)) == 16


def _directory_digest(path):
    """sha256 over the file names and contents of a directory, by name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as fh:
            h.update(name.encode() + b"\0" + fh.read().encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("n, files, last, sha256", [
    ("3", 379, "semiring_0378.txt",
     "2d700ad091b1b4eb97e0407df305038dad19abd706202d20fc3bfb694729a462"),
    ("4", 15108, "semiring_15107.txt",  # written at width 4, then renamed
     "83befe456dc6fc6c23b77165f077e811917de91c3931b8353e36a3da63830692"),
])
def test_enumerate_out_names_and_contents_are_frozen(capsys, tmp_path, n, files,
                                                     last, sha256):
    # digests frozen while every record was held until the stream ended
    out_dir = str(tmp_path / "stream")
    code, _, _ = run(capsys, "enumerate", "-n", n, "--out", out_dir)
    assert code == 0
    assert len(os.listdir(out_dir)) == files and max(os.listdir(out_dir)) == last
    assert _directory_digest(out_dir) == sha256


def test_enumerate_exhausted_budget_leaves_a_prefix(capsys, tmp_path):
    # records are written as they arrive: on exit 4 the output is the
    # stream's first records, on stdout and under --out alike
    code, full, _ = run(capsys, "enumerate", "-n", "3")
    records = full.split("%%\n")
    assert code == 0 and len(records) == 379
    # 502 nodes of the iso search, then one per table: 700 end after 191
    code, part, err = run(capsys, "enumerate", "-n", "3", "--budget-nodes", "700")
    assert code == 4 and "node budget exhausted" in err
    kept = part.split("%%\n")
    assert 0 < len(kept) < 379 and kept == records[:len(kept)]
    assert len(kept) == 191
    out_dir = tmp_path / "stream"
    code, _, _ = run(capsys, "enumerate", "-n", "3", "--budget-nodes", "700",
                     "--out", str(out_dir))
    assert code == 4
    assert sorted(os.listdir(out_dir)) == ["semiring_%04d.txt" % i for i in range(len(kept))]
    assert [(out_dir / ("semiring_%04d.txt" % i)).read_text()
            for i in range(len(kept))] == kept


def test_enumerate_exhausted_budget_names_its_prefix_at_the_full_width(capsys, tmp_path):
    # 8 522 nodes of the iso search, then one per table: 20 000 end after
    # 11 477 records, so the files are renamed to width 5 on exit 4 too and
    # their names sort in stream order
    code, full, _ = run(capsys, "enumerate", "-n", "4")
    records = full.split("%%\n")
    assert code == 0 and len(records) == 15108
    out_dir = tmp_path / "stream"
    code, _, err = run(capsys, "enumerate", "-n", "4", "--budget-nodes", "20000",
                       "--out", str(out_dir))
    assert code == 4 and "node budget exhausted" in err
    names = ["semiring_%05d.txt" % i for i in range(11477)]
    assert sorted(os.listdir(out_dir)) == names
    assert [(out_dir / name).read_text() for name in names] == records[:11477]


@pytest.mark.parametrize("used_by", ["record", "unrelated"])
def test_enumerate_refuses_a_directory_that_is_not_empty(capsys, monkeypatch, tmp_path,
                                                          used_by):
    # two runs' records must not mix: a used --out directory is refused
    # before any search and left as it is
    out_dir = tmp_path / "stream"
    if used_by == "record":
        assert run(capsys, "enumerate", "-n", "3", "--iso", "--out", str(out_dir))[0] == 0
    else:
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept\n")
    before = _directory_digest(out_dir), len(os.listdir(out_dir))

    def refuse(cfg):
        raise AssertionError("nothing may be searched for a refused --out")
        yield
    monkeypatch.setattr(cli, "enumerate_idempotent_semirings", refuse)
    code, out, err = run(capsys, "enumerate", "-n", "2", "--iso", "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == "parse error: cannot write output: %s is not empty\n" % out_dir
    assert (_directory_digest(out_dir), len(os.listdir(out_dir))) == before


def test_enumerate_into_an_existing_empty_directory(capsys, tmp_path):
    out_dir = tmp_path / "stream"
    out_dir.mkdir()
    code, _, err = run(capsys, "enumerate", "-n", "2", "--iso", "--out", str(out_dir))
    assert code == 0 and "wrote 10 files" in err
    assert len(os.listdir(out_dir)) == 10


def test_budget_exhaustion_exits_4_from_a_fresh_process(capsys, tmp_path):
    # the console script's path: entry() freezes the heap, then main();
    # the prefix written is the stream's first 191 records, as in-process
    records = run(capsys, "enumerate", "-n", "3")[1].split("%%\n")
    out_dir = tmp_path / "stream"
    src = os.path.dirname(os.path.dirname(os.path.abspath(semiring_lab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "semiring_lab.cli", "enumerate", "-n", "3",
                           "--budget-nodes", "700", "--out", str(out_dir)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 4, proc.stderr
    # the one line: no Traceback, no "Exception ignored" at shutdown
    assert proc.stderr == "budget exhausted: node budget exhausted\n", proc.stderr
    names = ["semiring_%04d.txt" % i for i in range(191)]
    assert sorted(os.listdir(out_dir)) == names
    assert [(out_dir / name).read_text() for name in names] == records[:191]


def test_main_freezes_no_heap(capsys):
    # only entry(), the process's own start, freezes: tests and library
    # callers keep their collector as it was
    before = gc.get_freeze_count()
    assert run(capsys, "enumerate", "-n", "3", "--iso", "--count-only")[0] == 0
    assert run(capsys, "verify", "--max-order", "2", "--iso")[0] == 0
    assert gc.get_freeze_count() == before


def test_enumerate_to_unwritable_directory(capsys, tmp_path):
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    code, _, err = run(capsys, "enumerate", "-n", "2", "--out",
                       str(blocker / "stream"))
    assert code == 2
    assert "cannot write output" in err


def test_nan_budget_is_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "-n", "2", "--budget-secs", "nan")
    assert code == 3
    assert "budget must be positive" in err


@pytest.mark.parametrize("workers", ["0", "-3", str(enumeration.MAX_WORKERS + 1),
                                     "1000000"])
def test_verify_rejects_worker_count_out_of_range(capsys, monkeypatch, workers):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may run before --workers is checked")
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(enumeration, "bands", refuse)
    code, out, err = run(capsys, "verify", "--max-order", "1", "--workers", workers)
    assert code == 3 and out == ""
    assert err == ("precondition violated: --workers must be in 1..%d\n"
                   % enumeration.MAX_WORKERS)


@pytest.mark.parametrize("workers", [0, enumeration.MAX_WORKERS + 1])
def test_sweep_refuses_a_worker_count_out_of_range_before_any_search(monkeypatch,
                                                                     workers):
    # the library stream checks the range itself, as the CLI passes it on
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may run before the worker count is checked")
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(enumeration, "bands", refuse)
    with pytest.raises(semiring_lab.PreconditionError,
                       match=r"--workers must be in 1\.\.%d$" % enumeration.MAX_WORKERS):
        next(sweep([EnumConfig(2, up_to_iso=True)], workers, None))


def test_verify_workers_need_fork(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no band may be searched without os.fork")
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(enumeration, "bands", refuse)
    code, out, err = run(capsys, "verify", "--max-order", "2", "--workers", "2")
    assert code == 3 and out == ""
    assert "needs os.fork" in err and "Traceback" not in err


def test_a_worker_that_cannot_be_forked_exits_3_and_leaks_no_fd(capsys, monkeypatch):
    fork, calls = os.fork, []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork(*args)

    monkeypatch.setattr(os, "fork", fail_second)
    fds = sorted(os.listdir("/proc/self/fd"))
    code, out, err = run(capsys, "verify", "--max-order", "2", "--workers", "3")
    assert code == 3 and out == ""
    assert "cannot start a worker: [Errno %d]" % errno.EAGAIN in err
    assert "Traceback" not in err and len(calls) == 2
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert_no_child()


def test_a_worker_whose_pipes_cannot_be_made_exits_3_and_leaks_no_fd(capsys, monkeypatch):
    # the second pipe is the first worker's results pipe: its jobs pipe is
    # made and must be closed again, and no worker is forked
    pipe, calls = os.pipe, []

    def fail_second():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return pipe()

    def refuse(*args):
        raise AssertionError("no worker may be forked")

    monkeypatch.setattr(os, "pipe", fail_second)
    monkeypatch.setattr(os, "fork", refuse)
    fds = sorted(os.listdir("/proc/self/fd"))
    code, out, err = run(capsys, "verify", "--max-order", "2", "--iso", "--workers", "2")
    assert code == 3 and out == ""
    assert "cannot start a worker: [Errno %d]" % errno.EMFILE in err
    assert "Traceback" not in err and len(calls) == 2
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert_no_child()


def test_enumerate_budget_exhaustion(capsys):
    code, _, _ = run(capsys, "enumerate", "-n", "3", "--count-only",
                     "--budget-nodes", "10")
    assert code == 4


def test_enumerate_wall_clock_budget_exhaustion(capsys):
    # the first band's job is charged, and the clock read, before the band
    # search's spend first samples it after 1664 nodes
    code, out, err = run(capsys, "enumerate", "-n", "5", "--iso", "--count-only",
                         "--budget-secs", "1e-6")
    assert (code, out) == (4, "")
    assert "budget exhausted: wall-clock budget exhausted" in err


def _limit_address_space():
    limit = 1536 * 2 ** 20  # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ["enumerate", "-n", "9", "--iso", "--count-only", "--budget-nodes", "5",
     "--budget-secs", "5"],
    ["enumerate", "-n", "11", "--iso", "--count-only", "--budget-nodes", "5",
     "--budget-secs", "5"],
    ["enumerate", "-n", "100000", "--count-only", "--budget-nodes", "5"],
])
def test_enumerate_rejects_orders_beyond_the_bound(argv):
    # in a fresh process under a 1.5 GiB address-space cap, where building
    # n! permutations or an n x n table first ends in MemoryError or a kill
    src = os.path.dirname(os.path.dirname(os.path.abspath(semiring_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "semiring_lab.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 3, proc.stderr
    assert "exceeds enumeration bound 8" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--max-order", "3", "--iso", "--workers", "2"],
    ["enumerate", "-n", "3", "--iso", "--out", "{out}"],
    ["explore-sigma", "--max-order", "2"],
])
def test_commands_run_clean_under_dev_mode_and_warnings_as_errors(tmp_path, argv):
    # in a fresh interpreter under -X dev -W error; a leaked file object
    # only prints "Exception ignored ... ResourceWarning" and still exits 0,
    # so stderr must hold the one summary line and nothing else
    src = os.path.dirname(os.path.dirname(os.path.abspath(semiring_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "semiring_lab.cli",
                           *(a.format(out=tmp_path / "out") for a in argv)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith(argv[0] + ": "), proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--max-order", "0"],
    ["verify", "--max-order", "-2"],
    ["explore-sigma", "--max-order", "0"],
    ["verify", "--max-order", "9"],
    ["explore-sigma", "--max-order", "100000"],
])
def test_max_order_out_of_range_is_rejected(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be enumerated before the orders are checked")
    monkeypatch.setattr(cli, "enumerate_idempotent_semirings", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "precondition violated" in err


def test_enumerate_unknown_filter(capsys):
    code, _, _ = run(capsys, "enumerate", "-n", "2", "--filter", "Z_weird")
    assert code == 3


def test_decompose_round_trip(capsys, tmp_path):
    import semiring_lab as sl
    cfg = sl.EnumConfig(order=3, up_to_iso=True, filter=("D_dot",))
    member = next(iter(sl.enumerate_idempotent_semirings(cfg)))
    path = tmp_path / "member.txt"
    path.write_text(sl.format_semiring_text(member))
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    s1 = sl.parse_semiring_text(results["s1"])
    s2 = sl.parse_semiring_text(results["s2"])
    d = sl.parse_semiring_text(results["spine"])
    prod, _ = sl.spined_product(s1, s2, d, results["phi1"], results["phi2"])
    assert sl.is_isomorphic(prod, member) is not None


def test_decompose_reports_up_to_order4_are_frozen(capsys, tmp_path, iso_upto4):
    # one digest over the stdout of `decompose` on every D_dot class up to
    # order 4, in stream order, frozen while the decomposition built its
    # quotients before testing them
    path = tmp_path / "t.txt"
    digest = hashlib.sha256()
    members = [t for t in iso_upto4 if semiring_lab.in_variety(t, "D_dot")]
    assert len(members) == 196
    for t in members:
        path.write_text(semiring_lab.format_semiring_text(t))
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "7a0f6e005ba3d47ef0810178e9b8016bf2261343e509b846ecdda522231ce89d")


def test_decompose_non_member(capsys, golden3_file):
    code, _, err = run(capsys, "decompose", golden3_file)
    assert code == 3


def test_decompose_non_idempotent(capsys, tmp_path):
    # + is constantly a and . constantly b: aa = b
    path = tmp_path / "notidem.txt"
    path.write_text("2\na b\na a\na a\n\nb b\nb b\n")
    code, out, err = run(capsys, "decompose", str(path))
    assert (code, out) == (3, "")
    assert "precondition violated: input is not an idempotent semiring" in err


def test_decompose_obstruction_is_an_internal_failure(capsys, monkeypatch, tmp_path, dl2):
    # a D_dot member always decomposes: an obstruction contradicts the proof
    monkeypatch.setattr(varieties, "_spined_obstruction", lambda a: "stand-in")
    path = tmp_path / "dl2.txt"
    path.write_text(semiring_lab.format_semiring_text(dl2))
    code, out, err = run(capsys, "decompose", str(path))
    assert (code, out) == (5, "")
    assert ("internal consistency failure: spined decomposition failed on a "
            "D_dot member: stand-in") in err


def test_explore_sigma(capsys):
    code, out, _ = run(capsys, "explore-sigma", "--max-order", "3")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["instances"] == 396
    # the literature's 3-element example shows up as a non-transitive row
    assert any(row["sigma_transitive"] is False for row in results["rows"])
    # and some transitive-sigma instances live outside N
    assert any(c["sigma_transitive"] and not c["in_N"]
               for c in results["cross_table"])
    total = sum(c["count"] for c in results["cross_table"])
    assert total == results["instances"]


def test_only_a_suite_of_theorems_runs_the_pass(capsys, monkeypatch):
    # enumerate's filter, explore-sigma and a one-theorem verify ask a few
    # questions per table, for which the pass over every identity a suite
    # reads would cost more than it saves; they finish, with the same
    # stdout, when it raises
    commands = (("enumerate", "-n", "3", "--iso", "--filter", "D_dot"),
                ("explore-sigma", "--max-order", "3"),
                ("verify", "--suite", "LEMMA_1_2", "--max-order", "3"))
    fresh = [run(capsys, *argv)[:2] for argv in commands]

    def refuse(add, mul, domain):
        raise AssertionError("the pass ran outside a suite")

    monkeypatch.setattr(varieties.JUDGED, "failed", refuse)
    assert [run(capsys, *argv)[:2] for argv in commands] == fresh
    assert [code for code, _ in fresh] == [0, 0, 0]
    with pytest.raises(AssertionError, match="outside a suite"):
        run(capsys, "verify", "--suite", "all", "--max-order", "1")


def test_explore_sigma_iso4_is_frozen(capsys):
    code, out, _ = run(capsys, "explore-sigma", "--max-order", "4", "--iso")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "36bf07cd37f6a39b10c5caa7e93b358aef59500c1c1bc6f42bc7f64f83755c5f")


def test_labelled_explore_sigma_order4_is_frozen(capsys):
    # digest frozen while each labelled table was judged on its own
    code, out, _ = run(capsys, "explore-sigma", "--max-order", "4")
    assert code == 0 and json.loads(out)["results"]["instances"] == 15504
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f084324150dca713e12dbd22d8654917b1c1dc80ecded749c7bb0b23e57a7c0d")


def test_analyze_reports_up_to_order4_are_frozen(capsys, tmp_path, iso_upto4):
    # one digest over the stdout of `analyze` on every class up to order 4,
    # in stream order; about 4 s
    path = tmp_path / "t.txt"
    digest = hashlib.sha256()
    for t in iso_upto4:
        path.write_text(semiring_lab.format_semiring_text(t))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "5e889502bde0f6bdd16197301dab703349a74bde4345d74ef2b6ee00d9ddc245")


def _partition_sizes(blocks):
    return sorted(map(len, blocks))


def _invariants(results):
    """The parts of an analyze report that no relabelling may change."""
    validation = results["validation"]
    return (validation["is_semiring"], validation["is_idempotent_semiring"],
            results["varieties"], results["eta_methods_agree"],
            results["sigma"]["transitive"],
            [_partition_sizes(results[reduct][k])
             for reduct in ("green_mult", "green_add") for k in "LRD"],
            {m: _partition_sizes(p) for m, p in results["eta"].items()})


def test_analyze_invariants_survive_a_relabelling(capsys, tmp_path, iso_small):
    # metamorphic: each class of order <= 3 and one seeded relabelling of it
    rng, path, moved = random.Random(1818), tmp_path / "t.txt", 0
    for t in iso_small:
        reports = []
        for s in (t, relabel_seeded(t, rng)):
            path.write_text(semiring_lab.format_semiring_text(s))
            code, out, _ = run(capsys, "analyze", str(path))
            assert code == 0
            reports.append(_invariants(json.loads(out)["results"]))
        assert reports[0] == reports[1], semiring_lab.format_semiring_text(t)
        moved += (s.add, s.mul) != (t.add, t.mul)
    assert len(iso_small) == 92 and moved > 40


def test_analyze_computes_sigma_and_sigma_star_once(capsys, monkeypatch, tmp_path,
                                                   iso_small):
    # one Analysis serves the report; sigma_star's partition is the
    # sigma_star route to eta; two of each while they were computed apart
    calls = {"sigma": 0, "sigma_star": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        fn = getattr(congruences, name)
        for module in (cli, congruences, varieties):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting(name, fn))
    path = tmp_path / "t.txt"
    for t in iso_small:
        path.write_text(semiring_lab.format_semiring_text(t))
        assert run(capsys, "analyze", str(path))[0] == 0
    assert calls == {"sigma": len(iso_small), "sigma_star": len(iso_small)}


def test_timing_is_null_and_no_flag_sets_it(capsys):
    # wall-clock time goes to stderr only, so the report stays byte-stable
    _, out, _ = run(capsys, "verify", "--suite", "THM_2_5", "--max-order", "1")
    assert json.loads(out)["timing"] is None
    with pytest.raises(SystemExit) as exc:
        main(["--timing", "verify", "--suite", "THM_2_5", "--max-order", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timing" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "--max-order", "2"),
    ("explore-sigma", "--max-order", "2"),
    ("enumerate", "-n", "2", "--count-only"),
    ("enumerate", "-n", "3"),
    ("analyze", "{golden3}"),
    ("decompose", "{dl2}"),
])
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, dl2, argv):
    # the reader has gone before the first write, as under `| head -0`
    files = {"golden3": GOLDEN3_TEXT, "dl2": semiring_lab.format_semiring_text(dl2)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(semiring_lab.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "semiring_lab.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    err = err.decode()
    assert proc.returncode == 2, err
    assert "parse error: cannot write output: " in err
    assert "Traceback" not in err and "Exception ignored" not in err

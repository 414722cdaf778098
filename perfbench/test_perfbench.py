"""Tests of the benchmark's own machinery (standard library only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import random
import tempfile
import threading
import time
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checks
import run
import tracer
import workloads


def _span(sid, start, end, parent=None, name="f", layer="cli", thread=1):
    return (sid, name, layer, start, end, parent, thread, 0)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_on_two_threads_count_once(self):
        spans = [_span(1, 0.0, 10.0),
                 _span(2, 1.0, 5.0, parent=1, thread=2),
                 _span(3, 3.0, 8.0, parent=1, thread=3)]
        own = tracer.self_times(spans)
        self.assertAlmostEqual(own[1], 3.0)  # 10 minus the union [1, 8]
        self.assertAlmostEqual(own[2], 4.0)
        self.assertAlmostEqual(own[3], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertAlmostEqual(tracer.union_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0)
        self.assertAlmostEqual(tracer.union_length([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0), 3.0)

    def test_pool_worker_spans_are_parented_to_the_submitting_span(self):
        tr = tracer.Tracer()
        barrier = threading.Barrier(2, timeout=5)

        def child():
            barrier.wait()
            time.sleep(0.05)

        inner = tr.wrap(child, "demodulation", "child")

        def parent():
            with ThreadPoolExecutor(max_workers=2) as pool:
                for fut in [pool.submit(inner), pool.submit(inner)]:
                    fut.result()

        outer = tr.wrap(parent, "cli", "parent")
        tr.begin_op(0)
        outer()
        spans, work = tr.take()
        by_name = {}
        for s in spans:
            by_name.setdefault(s[1], []).append(s)
        (top,) = by_name["parent"]
        self.assertEqual({s[5] for s in by_name["child"]}, {top[0]})
        self.assertEqual(len({s[6] for s in by_name["child"]}), 2)
        own = tracer.self_times(spans)
        duration = top[4] - top[3]
        # the two concurrent children cover ~0.05 s of the parent, not 0.1 s
        self.assertGreater(own[top[0]], 0.0)
        self.assertLess(own[top[0]], duration - 0.04)
        metrics = tracer.layer_metrics(spans, work)
        self.assertEqual(metrics["cli.threads_max"], 3)


class TailRule(unittest.TestCase):
    def test_tail_reports_percentile_samples_and_beyond(self):
        info = run.tail([float(v) for v in range(1, 101)], 90.0)
        self.assertAlmostEqual(info["value"], 90.1)
        self.assertEqual((info["percentile"], info["samples"], info["beyond"]),
                         (90.0, 100, 10))
        self.assertFalse(info["short"])
        self.assertEqual(run.tail([3.0, 1.0, 2.0], 100.0)["value"], 3.0)

    def test_fewer_than_ten_beyond_is_flagged_except_at_p100(self):
        self.assertTrue(run.tail([float(v) for v in range(1, 91)], 90.0)["short"])
        self.assertTrue(run.tail([float(v) for v in range(1, 901)], 99.0)["short"])
        self.assertFalse(run.tail([float(v) for v in range(1, 1001)], 99.0)["short"])
        self.assertFalse(run.tail([1.0, 2.0, 3.0], 100.0)["short"])

    def test_baseline_runs_keep_ten_beyond_their_percentile(self):
        baseline = json.loads((run.BENCH_DIR / "results" / "BENCH_baseline.json").read_text())
        for name, entry in baseline["workloads"].items():
            self.assertEqual(entry["tail_percentile"], workloads.TAIL_PERCENTILE[name])
            for r in (r for s in entry["sets"] for r in s["runs"]):
                self.assertFalse(r["tail"]["short"], (name, r["seed"], r["tail"]))


class Rounds(unittest.TestCase):
    def test_pauses_run_between_operations_and_are_not_timed(self):
        r = run.Run.__new__(run.Run)
        r.workload, r.round_times = "lib_warm", []
        events = []

        def op(_):
            time.sleep(0.005)
            events.append("op")
            return 0.005

        def pause():
            time.sleep(0.05)
            events.append("pause")

        r.run_op = op
        with tempfile.TemporaryDirectory() as tmp:
            r.work = Path(tmp) / "work"
            r.run_rounds(workloads.make_round("lib_warm", random.Random(1)),
                         random.Random(2), 0.17, [pause] * 3)
        self.assertEqual(events.count("pause"), 3)
        self.assertLess(events.index("pause"), len(events) // 2)
        # rounds of 13 ops take ~0.07 s: a second one fits in 0.17 s, a third
        # does not; counting the 0.15 s of pauses would have stopped at one
        self.assertEqual(len(r.round_times), 2)
        self.assertEqual(events.count("op"), 26)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = random.Random(5), random.Random(5)
            self.assertEqual([op.key for op in workloads.make_round(name, a)],
                             [op.key for op in workloads.make_round(name, b)])

    def test_every_input_has_a_reference(self):
        ref = run.load_reference()
        for name in workloads.WORKLOADS:
            table = ref["lib" if name == "lib_warm" else "cli"]
            missing = [op.key for op in workloads.all_ops(name) if op.key not in table]
            self.assertEqual(missing, [], name)


ORACLE = workloads.CliOp(("oracle", "--alpha", "0.5", "--r", "0.01"))
GOOD = ("# circuit\nparity,n,m,p_circuit,p_limit,rel_err,infidelity,purity\n"
        "even,0,0,0.15,0.151,0.01,1e-05,0.999\n")
NAN = ("# circuit\nparity,n,m,p_circuit,p_limit,rel_err,infidelity,purity\n"
       "even,0,0,nan,0.151,nan,nan,nan\n# max corrected-state infidelity: 0\n")


class Checker(unittest.TestCase):
    def test_nan_rows_with_exit_zero_break_the_contract(self):
        self.assertEqual(checks.check_cli(ORACLE, 0, GOOD, None)[0], [])
        problems, _ = checks.check_cli(ORACLE, 0, NAN, None)
        self.assertTrue(any("not finite" in p for p in problems))

    def test_exit_codes(self):
        malformed = workloads.CliOp(("figure", "fig2", "--nmax", "-3"), "dir", usage=True)
        self.assertEqual(checks.check_cli(malformed, 2, "", None)[0], [])
        self.assertTrue(checks.check_cli(malformed, 1, "", None)[0])
        self.assertTrue(checks.check_cli(ORACLE, 1, "", None)[0])
        self.assertEqual(checks.check_cli(ORACLE, 3, "", None)[0], [])

    def test_dual_accounting_loss(self):
        op = workloads.CliOp(("sweep", "--protocol", "dual"), "file")
        head = "alpha,p_direct,p_modulated,p_total\n"
        self.assertEqual(checks.check_cli(op, 0, "", head + "1,0.186,0.814,1\n")[0], [])
        problems, _ = checks.check_cli(op, 0, "", head + "4,0.0277,0.4833,0.511\n")
        self.assertTrue(any("loses" in p for p in problems))

    def test_verify_tally(self):
        op = workloads.CliOp(("verify", "--suite", "paper"))
        report = "[FAIL] x  computed=1 expected=2 tol=0.1\n44/45 checks passed"
        problems, failed = checks.check_cli(op, 1, report, None)
        self.assertEqual(failed, 1)
        self.assertTrue(problems)

    def test_classify(self):
        valid, invalid = {"valid": True}, {"valid": False}
        self.assertEqual(checks.classify([], True, valid)[0], "ok")
        self.assertEqual(checks.classify([], False, valid)[0], "failed")
        self.assertEqual(checks.classify(["nan"], False, valid)[0], "failed")
        self.assertEqual(checks.classify(["nan"], False, invalid)[0], "defect")
        self.assertEqual(checks.classify([], False, invalid)[0], "ok")
        self.assertEqual(checks.classify([], True, None)[0], "failed")

    def test_library_checks(self):
        good = {"fingerprint": [0.5], "probs": [0.5]}
        self.assertEqual(checks.check_lib(good), [])
        self.assertTrue(checks.check_lib({**good, "fingerprint": [float("nan")]}))
        self.assertTrue(checks.check_lib({**good, "probs": [1.1]}))
        self.assertTrue(checks.same_fingerprint([1.0, 2.0], [1.0, 2.0 + 1e-12]))
        self.assertFalse(checks.same_fingerprint([1.0, 2.0], [1.0, 2.001]))


class Reference(unittest.TestCase):
    REF = {"exit": 0, "body": ["alpha,p_direct,rel_err", "0.5,0.123456789,1.2e-15",
                               "[PASS] fig4 x  computed=0.500000001 expected=0.5 tol=1e-06",
                               "45/45 checks passed"]}

    def observed(self, *lines, rc=0):
        return {"exit": rc, "body": list(lines)}

    def test_round_off_matches(self):
        # last printed digit flipped, a trailing zero dropped, round-off near zero
        got = self.observed("alpha,p_direct,rel_err", "0.5,0.12345679,3.4e-16",
                            "[PASS] fig4 x  computed=0.500000002 expected=0.5 tol=1e-06",
                            "45/45 checks passed")
        self.assertTrue(checks.same_observed(got, self.REF))

    def test_real_changes_do_not_match(self):
        body = self.REF["body"]
        for i, line in ((1, "0.5,0.123456791,1.2e-15"), (1, "0.5,0.1235,1.2e-15"),
                        (2, body[2].replace("PASS", "FAIL")), (3, "44/45 checks passed"),
                        (0, "alpha,p_total,rel_err"), (1, "0.5,nan,1.2e-15")):
            lines = list(body)
            lines[i] = line
            self.assertFalse(checks.same_observed(self.observed(*lines), self.REF), line)
        self.assertFalse(checks.same_observed(self.observed(*body[:3]), self.REF))
        self.assertFalse(checks.same_observed({"exit": 3}, self.REF))
        self.assertTrue(checks.same_observed({"exit": 2}, {"exit": 2}))
        self.assertFalse(checks.same_observed({"exit": 1}, {"exit": 2}))

    def test_numbers_inside_words_are_text(self):
        self.assertFalse(checks.same_line("figure fig4", "figure fig5"))
        self.assertTrue(checks.same_line("difference  : 1.1e-16", "difference  : 0"))


if __name__ == "__main__":
    unittest.main()

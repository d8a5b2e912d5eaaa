"""Tests of the benchmark's own input generator, checks and tracer.

    python3 -m unittest discover -s bench
"""

import io
import itertools
import math
import unittest

import inputs
import run
import tracer

N = 64


def take(stream, n=N):
    return list(itertools.islice(stream, n))


def prime_by_trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def represented(form: str, m: int) -> bool:
    c1, c2, c3 = inputs.FORMS[form]
    return any(c1 * x * x + c2 * y * y + c3 * z * z == m
               for x in range(math.isqrt(m) + 1)
               for y in range(math.isqrt(m) + 1)
               for z in range(math.isqrt(m) + 1))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (inputs.witness_large, inputs.witness_bigsquare,
                     lambda seed: inputs.scan_windows(seed, run.SCAN_WIDTH)):
            self.assertEqual(take(make(5)), take(make(5)))
            self.assertNotEqual(take(make(5)), take(make(6)))

    def test_witness_large_inputs(self):
        got = take(inputs.witness_large(1), 160)
        for form, m in got:
            self.assertTrue(inputs.eligible(form, m))
            self.assertIn(m.bit_length(), inputs.LARGE_BITS)
        # Every round of 16 holds each (form, bit size) pair once.
        for i in range(0, len(got), 16):
            pairs = {(form, m.bit_length()) for form, m in got[i:i + 16]}
            self.assertEqual(len(pairs), 16)

    def test_witness_bigsquare_inputs(self):
        parts = take(inputs.bigsquare_parts(2))
        lo_bits, hi_bits = inputs.BIGSQUARE_BITS
        for (form, k, s, core), (form2, m) in zip(parts, inputs.witness_bigsquare(2)):
            self.assertEqual((form, m), (form2, 4**k * s * s * core))
            self.assertLessEqual(m, 2**80)
            self.assertTrue(lo_bits <= m.bit_length() <= hi_bits)
            self.assertTrue(inputs.eligible(form, m))
            self.assertGreater(s, inputs.TRIAL_LIMIT)
            self.assertTrue(prime_by_trial_division(s))
            factors = inputs.small_factors(core)
            self.assertTrue(all(e == 1 for _, e in factors))
            self.assertTrue(inputs.eligible(form, core))
        big = [max(p for p, _ in inputs.small_factors(core)) > inputs.TRIAL_LIMIT
               for _, _, _, core in parts]
        self.assertEqual(sum(big), len(parts) // 2)

    def test_scan_windows(self):
        got = take(inputs.scan_windows(3, run.SCAN_WIDTH))
        for form, lo, hi in got:
            self.assertIn(form, inputs.FORMS)
            self.assertEqual(hi - lo + 1, run.SCAN_WIDTH)
            self.assertTrue(1 <= lo and hi <= inputs.SCAN_HI)
        self.assertEqual({form for form, _, _ in got}, set(inputs.FORMS))

    def test_verdict_matches_brute_force(self):
        for form in inputs.EXACT_FORMS:
            for m in range(1, 200):
                self.assertEqual(inputs.eligible(form, m), represented(form, m), (form, m))
        for form in ("x2+y2+3z2", "x2+y2+7z2"):
            for m in range(1, 200):
                if inputs.eligible(form, m):
                    self.assertTrue(represented(form, m), (form, m))

    def test_is_prime(self):
        for n in range(2000):
            self.assertEqual(inputs.is_prime(n), prime_by_trial_division(n), n)
        self.assertTrue(inputs.is_prime(2**61 - 1))
        self.assertFalse(inputs.is_prime((2**31 - 1) * (2**19 - 1)))


class CheckTest(unittest.TestCase):
    def test_witness_check_rejects_a_wrong_representation(self):
        req = run.Request("x2+2y2+2z2", 3)
        good = '{"form": "x2+2y2+2z2", "m": 3, "eligible": true, "verdict": ' \
               '"eligible", "representation": [1, 0, 1], "verified": true}'
        self.assertIsNone(run.check_witness(req, 0, good))
        self.assertIsNotNone(run.check_witness(req, 0, good.replace("[1, 0, 1]", "[1, 1, 1]")))
        self.assertIsNotNone(run.check_witness(req, 0, good.replace("true}", "false}")))
        self.assertIsNotNone(run.check_witness(req, 3, good))

    def test_scan_check_rejects_a_short_scan(self):
        modules = run.import_ternrep()
        req = run.Request("x2+y2+2z2", 1, 40)
        out = io.StringIO()
        rc = modules["ternrep.cli"].dispatch(req.argv(1), out, io.StringIO())
        self.assertIsNone(run.check_scan(req, rc, out.getvalue()))
        short = out.getvalue().rsplit("\n", 2)[0] + "\n"
        self.assertIsNotNone(run.check_scan(req, rc, short))
        wrong = out.getvalue().replace("\n14,obstructed,", "\n14,eligible,")
        self.assertIsNotNone(run.check_scan(req, rc, wrong))


class ReferenceTest(unittest.TestCase):
    def test_norm_seconds_is_quoted_at_the_nominal_reference_time(self):
        # The machine ran the reference loop at half the nominal speed.
        call = run.Call(run.Request("x2+y2+2z2", 3), 0.1, 2 * run.REF_MS / 1000, None, None)
        self.assertAlmostEqual(call.norm_seconds, 0.05)

    def test_every_call_has_a_reference_time(self):
        modules = run.import_ternrep()
        reqs = [run.Request("x2+y2+2z2", m) for m in range(1, 40)
                if inputs.eligible("x2+y2+2z2", m)]
        calls = run.run_pass(modules["ternrep.cli"].dispatch, reqs, "witness", 1,
                             None, keep_stdout=False)
        self.assertEqual(len(calls), len(reqs))
        for call in calls:
            self.assertIsNone(call.error)
            self.assertGreater(call.ref_seconds, 0)


class TracerTest(unittest.TestCase):
    def test_spans_and_restore(self):
        modules = run.import_ternrep()
        pipeline, descent = modules["ternrep.pipeline"], modules["ternrep.descent"]
        originals = (pipeline.factorize, descent.factorize, pipeline.enumerate_point)
        argv = ["witness", "--form", "x2+y2+2z2", "--m", "1000006", "--json"]
        plain = io.StringIO()
        modules["ternrep.cli"].dispatch(argv, plain, io.StringIO())
        t = tracer.Tracer(modules)
        with t:
            self.assertIsNot(pipeline.factorize, originals[0])
            self.assertIs(pipeline.factorize, descent.factorize)
            traced = io.StringIO()
            modules["ternrep.cli"].dispatch(argv, traced, io.StringIO())
        self.assertEqual(traced.getvalue(), plain.getvalue())
        self.assertEqual((pipeline.factorize, descent.factorize,
                          pipeline.enumerate_point), originals)
        self.assertIn("ternrep.descent.factorize", t.sites["factor.factorize"])
        summary = tracer.Summary(t.spans())
        self.assertEqual(summary.calls["cli.dispatch"], 1)
        self.assertEqual(summary.calls["pipeline.enumerate_point"], 1)
        self.assertGreaterEqual(summary.calls["factor.factorize"], 4)
        # Self times add up to the root span's duration.
        self.assertEqual(sum(summary.self_ns.values()), summary.incl_ns["cli.dispatch"])


if __name__ == "__main__":
    unittest.main()

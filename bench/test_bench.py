"""Self-tests for the benchmark (stdlib unittest; a few seconds).

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# the gem: its two co-chromatic signatures need a certificate
GEM = "n 5\ne 0 1 +\ne 0 4 +\ne 1 2 +\ne 1 3 +\ne 1 4 +\ne 2 3 +\ne 3 4 +\n"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            first = inputs.write(11, Path(a))
            second = inputs.write(11, Path(b))
            self.assertEqual(
                [p.read_bytes() for p in first], [p.read_bytes() for p in second]
            )
        self.assertNotEqual(inputs.generate(11), inputs.generate(12))

    def test_stream_covers_every_size_and_is_valid(self):
        files = inputs.generate(3)
        self.assertGreaterEqual(len(files), 200)
        sizes = set()
        for _, text in files:
            n, edges = checks.parse_sg(text)
            pairs = {(u, v) for u, v, _ in edges}
            self.assertEqual(len(pairs), len(edges))
            self.assertTrue(all(0 <= u < v < n and s == 1 for u, v, s in edges))
            self.assertEqual(checks.component_count(n, edges), 1)
            sizes.add((n, len(edges)))
        self.assertEqual(sizes, set(inputs.size_combos()))


def _cli_output(target: str, details: dict, scale) -> str:
    return json.dumps({"format": 1, "target": target, "scale": scale,
                       "status": "pass", "details": details})


class ChecksTest(unittest.TestCase):
    COCHROMATIC = ["verify", "--conjecture", "cochromatic-complete"]

    def test_answer_keys_accept_correct_output(self):
        good = _cli_output("c", {"classes_checked": {"0": 1, "1": 1, "2": 1, "3": 2}}, 3)
        self.assertEqual(checks.check_cli_output(self.COCHROMATIC, 0, good), [])

    def test_tampered_output_is_a_failed_op(self):
        tampered = _cli_output("c", {"classes_checked": {"0": 1, "1": 1, "2": 1, "3": 3}}, 3)
        good = _cli_output("c", {"classes_checked": {"0": 1, "1": 1, "2": 1, "3": 2}}, 3)
        malformed = json.dumps({"status": "pass", "details": {}})
        workload = run.Workload([[self.COCHROMATIC]] * 3, ["a", "b", "c"])
        result = run.Pass(outputs=[(0, good), (0, tampered), (0, malformed)])
        problems = run.check_pass(workload, result, seed=0, deep=False)
        self.assertEqual([bool(p) for p in problems], [False, True, True])

    def test_exit_code_and_status_fail(self):
        good = _cli_output("c", {"classes_checked": {"0": 1}}, 0)
        self.assertTrue(checks.check_cli_output(self.COCHROMATIC, 1, good))
        self.assertTrue(checks.check_cli_output(self.COCHROMATIC, 0, good.replace("pass", "counterexample")))
        self.assertTrue(checks.check_cli_output(self.COCHROMATIC, 0, "not json"))

    def test_threshold_and_bivariate_keys(self):
        argv = ["verify", "--conjecture", "threshold"]
        ok = _cli_output("t", {"method": {"exact_to": 2}}, 2)
        self.assertEqual(checks.check_cli_output(argv, 0, ok), [])
        self.assertEqual(checks.check_threshold_steps(ok, 3 + 9), [])
        self.assertTrue(checks.check_threshold_steps(ok, 3 + 8))
        split = _cli_output("t", {"method": {"exact_to": 2, "fingerprint_from": 3}}, 4)
        self.assertEqual(checks.check_cli_output(argv, 0, split), [])
        self.assertTrue(checks.check_cli_output(argv, 0, split.replace('"fingerprint_from": 3', '"fingerprint_from": 4')))
        self.assertTrue(checks.check_cli_output(argv, 0, _cli_output("t", {"method": {"exact_to": 2}}, 4)))
        argv = ["verify", "--conjecture", "bivariate-complete"]
        ok = _cli_output("b", {"class_counts": {"0": 1, "1": 1, "2": 2, "3": 4}}, 3)
        self.assertEqual(checks.check_cli_output(argv, 0, ok), [])
        self.assertTrue(checks.check_cli_output(argv, 0, ok.replace('"3": 4', '"3": 5')))

    def test_search_certificates_and_brute_force(self):
        from signedchrom import cli

        graph = GEM
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gem.sg"
            path.write_text(graph, encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["search-cochromatic", "--underlying", str(path)])
        stdout = out.getvalue()
        self.assertEqual(checks.check_search_output(graph, code, stdout), [])
        group = json.loads(stdout)["details"]["cochromatic_groups"][0]
        a, b = group["classes"][:2]
        self.assertEqual(checks.check_pair_by_brute_force(a, b, group["pair"]), [])
        bad_pair = {"even": group["pair"]["even"], "odd": ["1"] + group["pair"]["odd"][1:]}
        self.assertTrue(checks.check_pair_by_brute_force(a, b, bad_pair))
        tampered = stdout.replace('"switchings_tried": 16', '"switchings_tried": 15')
        self.assertNotEqual(tampered, stdout)
        self.assertTrue(checks.check_search_output(graph, code, tampered))

        from signedchrom.equivalence import enumerate_classes
        from signedchrom.graphs import parse_graph

        inventory = enumerate_classes(parse_graph(graph), "switching_iso")
        self.assertEqual(checks.check_groups_by_brute_force(stdout, inventory), [])
        doc = json.loads(stdout)
        doc["details"]["cochromatic_groups"] = []  # a lost group passes every other check
        lost = json.dumps(doc)
        self.assertEqual(checks.check_search_output(graph, code, lost), [])
        self.assertTrue(checks.check_groups_by_brute_force(lost, inventory))

    def test_table_checks_are_pinned(self):
        checks_out = [{"name": name, "status": "pass"} for name in sorted(checks.TABLE_CHECKS)]
        for c in checks_out:
            if c["name"].startswith("complete_table_K"):
                c["classes"] = checks.SWITCHING_CLASSES_KN[int(c["name"][-1])]
        argv = ["reproduce-tables"]
        self.assertEqual(checks.check_cli_output(argv, 0, _cli_output("r", {"checks": checks_out}, 0)), [])
        dropped = [c for c in checks_out if c["name"] != "petersen_table"]
        self.assertTrue(checks.check_cli_output(argv, 0, _cli_output("r", {"checks": dropped}, 0)))

    def test_brute_force_counter(self):
        # signed K_3, all negative, 4 colours (+-1, +-2): 28 proper colourings
        edges = [(0, 1, -1), (0, 2, -1), (1, 2, -1)]
        self.assertEqual(checks.count_colourings(3, edges, 4), 28)

    def test_brute_force_counter_matches_every_colouring(self):
        import itertools
        import random

        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(0, 4)
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [(u, v, rng.choice((1, -1))) for u, v in rng.sample(slots, rng.randint(0, len(slots)))]
            for lam in range(6):
                colours = [c for i in range(1, lam // 2 + 1) for c in (i, -i)] + [0] * (lam % 2)
                want = sum(
                    all(k[u] != s * k[v] for u, v, s in edges)
                    for k in itertools.product(colours, repeat=n)
                )
                self.assertEqual(checks.count_colourings(n, edges, lam), want, (n, edges, lam))


class TracerTest(unittest.TestCase):
    def test_wraps_every_namespace_and_restores(self):
        from signedchrom import chromatic, cli, verify
        from signedchrom.poly import BiPoly

        originals = (verify.threshold_even_step, chromatic.threshold_even_step,
                     cli._CONJECTURES["threshold"], BiPoly.__rmul__)
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", "--conjecture", "threshold", "--max", "3"])
            tracer.request_id = 1
            3 * BiPoly.x()
        finally:
            tracer.uninstall()
        self.assertEqual(
            (verify.threshold_even_step, chromatic.threshold_even_step,
             cli._CONJECTURES["threshold"], BiPoly.__rmul__),
            originals,
        )
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[:2], ["cli.main", "verify.threshold"])
        self.assertEqual(names.count("chromatic.threshold_step"), 3 + 9 + 27)
        last = tracer.spans[-1]
        self.assertEqual((last[0], last[3], last[4], last[5]), ("poly.mul", -1, 1, {"term_products": 1}))
        m = spans.summarize([tracer.spans], ["cli.main.calls"])
        self.assertEqual(m["cli.main.calls"], 1)
        self.assertAlmostEqual(
            m["spans.root_s"],
            sum(s[2] - s[1] for s in tracer.spans if s[3] < 0),
        )

    def test_self_time_subtracts_children(self):
        fake = [
            ["cli.main", 0.0, 10.0, -1, 0, None],
            ["verify.certificate", 2.0, 5.0, 0, 0, None],
            ["equivalence.find_isomorphism", 3.0, 4.0, 1, 0, None],
        ]
        m = spans.summarize([fake], ["cli.main.self_s", "verify.self_s", "verify.certificate.s"])
        self.assertEqual(m["cli.main.self_s"], 7.0)
        self.assertEqual(m["verify.self_s"], 2.0)
        self.assertEqual(m["verify.certificate.s"], 3.0)
        self.assertEqual(m["spans.root_s"], 10.0)


class SpeedTest(unittest.TestCase):
    def test_reference_seconds_scale_by_probe_speed(self):
        ref = run.REFERENCE_PROBE_S
        # one sample a second: full speed before t = 50, half speed after
        samples = [(float(t), ref if t < 50 else 2 * ref) for t in range(100)]
        self.assertAlmostEqual(run.reference_seconds(samples, 10.0, 30.0), 20.0)
        self.assertAlmostEqual(run.reference_seconds(samples, 60.0, 80.0), 10.0)
        # an interval with too few samples inside takes the nearest ones
        self.assertAlmostEqual(run.reference_seconds(samples, 20.2, 20.3), 0.1)
        self.assertAlmostEqual(run.reference_seconds(samples, 80.2, 80.3), 0.05)

    def test_sampler_records_and_stops(self):
        import time

        with tempfile.TemporaryDirectory() as tmp:
            sampler = run.SpeedSampler(ROOT, Path(tmp))
            time.sleep(0.3)
            samples = sampler.stop()
            self.assertIsNotNone(sampler.proc.returncode)
            self.assertGreaterEqual(len(samples), 3)
            self.assertTrue(all(d > 0 for _, d in samples))
            self.assertEqual(sampler.stop(), samples)


class OutputTest(unittest.TestCase):
    """A tiny workload through run.main prints every metric BENCHMARK.json names."""

    def _run(self, trace: int) -> dict:
        def tiny(name, seed, work):
            gem = work / "gem.sg"
            gem.write_text(GEM, encoding="utf-8")
            return run.Workload(
                [[["verify", "--conjecture", "threshold", "--max", "3"]],
                 [["search-cochromatic", "--underlying", str(gem)],
                  ["verify", "--conjecture", "cochromatic-complete", "--max", "4"]]],
                ["threshold", "search", "cochromatic"],
            )

        saved = (run.build_workload, os.getcwd())
        run.build_workload = tiny
        out = io.StringIO()
        try:
            os.chdir(ROOT)
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "desk", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
        finally:
            run.build_workload = saved[0]
            os.chdir(saved[1])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        return result

    def test_end_to_end_metrics(self):
        result = self._run(0)
        names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
        self.assertEqual(result["attempted"], 3)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_per_layer_metrics(self):
        result = self._run(1)
        names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
        self.assertEqual(result["metrics"]["cli.main.calls"]["value"], 3)
        self.assertGreater(result["metrics"]["verify.certificate.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()

"""signedchrom benchmark: time-to-verdict end to end, or per layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Every
request runs through `signedchrom.cli.main` in a fresh client process
(bench/client.py), one process at a time, and every output is checked
against answer keys that do not come from the code under test (checks.py).

With --trace 0 the workload's pass (its list of processes and requests)
runs once, and again while another pass fits in the first S seconds, and
the end-to-end metrics are medians over passes.  Their times are in
reference seconds: every measured interval is scaled by the CPU's speed
during it, which a sampler process (speed.py) pinned to the same CPU
measures with a fixed probe, so that the shared machine's drift between
fast and slow periods cancels.  The raw pass times are in the details line.
With --trace 1 one untraced pass runs, then one pass with every layer
function wrapped (spans.py); the per-layer metrics come from the traced
pass and trace.overhead_s is the difference of the two pass times.

The last line of stdout is the result object; the line before it holds
details: seed, per-request medians, machine facts and any failed checks.
Spans of a traced run are left in bench/_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs
import spans

RUN_LIMIT_S = 170.0  # every run, traced or not, ends within 180 s
SETUP_PROBES = 15
# speed.py's probe time at which a measured second is one reference second:
# its typical time on the 2-core machine the benchmark was tuned on
REFERENCE_PROBE_S = 150e-6
SPEED_SAMPLES = 8  # fewest probe samples that set the speed of an interval
SPOT_CHECK_PAIRS = 4

DESK = (
    ("tables", ["reproduce-tables"]),
    ("cochromatic", ["verify", "--conjecture", "cochromatic-complete"]),
    ("threshold", ["verify", "--conjecture", "threshold"]),
    ("bivariate", ["verify", "--conjecture", "bivariate-complete", "--max", "5"]),
)

# per-layer metrics measured on the client processes rather than from spans
PROCESS_PREFIXES = ("proc.", "trace.")


@dataclass
class Workload:
    """processes[k] is the list of requests (CLI argv) client process k runs."""

    processes: list[list[list[str]]]
    labels: list[str]  # one per request, for the details line


@dataclass
class Pass:
    start: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    teardown_s: float = 0.0  # last request returned -> client exited
    latencies: list[tuple[float, float]] = field(default_factory=list)  # (start, end)
    outputs: list[tuple[object, str]] = field(default_factory=list)  # (exit, stdout)
    span_files: list[Path] = field(default_factory=list)
    aborted: bool = False  # a client timed out or printed no report

    def load_spans(self) -> list[list[list]]:
        """The spans of each client process of a traced pass."""
        span_lists = []
        for path in self.span_files:
            with open(path, encoding="utf-8") as fh:
                span_lists.append(json.load(fh))
        return span_lists


def build_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "desk":
        return Workload([[argv] for _, argv in DESK], [label for label, _ in DESK])
    if name == "k7":
        argv = ["verify", "--conjecture", "cochromatic-complete", "--stretch"]
        return Workload([[argv]], ["k7"])
    if name == "threshold12":
        return Workload([[["verify", "--conjecture", "threshold", "--stretch"]]], ["threshold12"])
    if name == "cochromatic-search":
        paths = inputs.write(seed, work / "inputs")
        requests = [["search-cochromatic", "--underlying", str(p)] for p in paths]
        return Workload([requests], [p.name for p in paths])
    raise SystemExit(f"unknown workload {name!r}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 1."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root, self.work, self.deadline = root, work, deadline
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.client = str(root / "bench" / "client.py")

    def _spawn(self, args: list[str]) -> tuple[object, float, float]:
        """Run one client; return (parsed report or None, launch time, cpu seconds)."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        launch = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, self.client, *args], cwd=self.root, env=self.env,
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - perf_counter()),
            )
        except subprocess.TimeoutExpired:
            return None, launch, 0.0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stderr[-2000:])
            report = None
        return report, launch, cpu

    def setup_probe(self) -> tuple[float, float] | None:
        """(launch, ready) of a client that only imports signedchrom.cli."""
        report, launch, _ = self._spawn(["--setup-only"])
        return None if report is None else (launch, report["ready"])

    def run_pass(self, workload: Workload, trace: bool) -> Pass:
        result = Pass(start=perf_counter())
        for k, requests in enumerate(workload.processes):
            request_file = self.work / f"requests-{k}.json"
            request_file.write_text(json.dumps(requests), encoding="utf-8")
            args = [str(request_file)]
            if trace:
                span_file = self.work / f"spans-{k}.json"
                args += ["--spans", str(span_file)]
                result.span_files.append(span_file)
            report, launch, cpu = self._spawn(args)
            process_wall = perf_counter() - launch
            result.cpu_s += cpu
            if report is None:
                result.aborted = True
                result.outputs += [(None, "")] * len(requests)
                break
            result.setup_s += report["ready"] - launch
            result.teardown_s += launch + process_wall - report["done"]
            for r in report["requests"]:
                # a one-request client is a CLI invocation: the user waits for the process
                if len(requests) == 1:
                    result.latencies.append((launch, launch + process_wall))
                else:
                    result.latencies.append((r["start"], r["start"] + r["latency_s"]))
                result.outputs.append((r["exit"], r["stdout"]))
                if r["exit"] != 0:
                    sys.stderr.write(r["stderr_tail"])
        result.wall_s = perf_counter() - result.start
        return result


class SpeedSampler:
    """speed.py running beside the work; `stop` returns its (start, seconds) samples."""

    def __init__(self, root: Path, work: Path) -> None:
        self.path = work / "speed.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "bench" / "speed.py"), str(self.path)],
            stdout=subprocess.PIPE, text=True,
        )
        self.proc.stdout.readline()  # "ready": SIGTERM now makes it write its samples
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> list[tuple[float, float]]:
        if self.proc.returncode is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            if self.path.exists():
                self.samples = [tuple(s) for s in json.loads(self.path.read_text(encoding="utf-8"))]
        return self.samples


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so that the
    speed sampler measures the CPU the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_seconds(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """end - start in reference seconds.

    The speed of the interval is the mean of REFERENCE_PROBE_S / probe time
    over the probe samples taken in it, or over the SPEED_SAMPLES samples
    nearest to it when it holds fewer.
    """
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < SPEED_SAMPLES:
        nearest = sorted(samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
        inside = [d for _, d in nearest[:SPEED_SAMPLES]]
    return (end - start) * statistics.fmean(REFERENCE_PROBE_S / d for d in inside)


def _checked(check, *args) -> list[str]:
    """Run one output check; output of the wrong shape is a failed op too."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        return [f"malformed output: {e!r}"]


def threshold_steps(workload: Workload, run: Pass) -> dict[int, int]:
    """Traced threshold-step spans of each request, by request index."""
    steps: dict[int, int] = {}
    offset = 0
    for requests, span_list in zip(workload.processes, run.load_spans()):
        for name, _, _, _, request_id, _ in span_list:
            if name == "chromatic.threshold_step":
                steps[offset + request_id] = steps.get(offset + request_id, 0) + 1
        offset += len(requests)
    return steps


def check_pass(workload: Workload, run: Pass, seed: int, deep: bool) -> list[list[str]]:
    """Problems per request; deep adds the checks that re-run program code."""
    requests = [argv for process in workload.processes for argv in process]
    problems = []
    searches = {}  # request index -> text of its input graph
    for i, (argv, (code, stdout)) in enumerate(zip(requests, run.outputs)):
        if argv[0] == "search-cochromatic":
            searches[i] = Path(argv[2]).read_text(encoding="utf-8")
            problems.append(_checked(checks.check_search_output, searches[i], code, stdout))
        else:
            problems.append(_checked(checks.check_cli_output, argv, code, stdout))
    problems += [["not run: a client aborted"]] * (len(requests) - len(run.outputs))
    if run.span_files and not run.aborted:
        steps = threshold_steps(workload, run)
        for i, argv in enumerate(requests):
            if "threshold" in argv and not problems[i]:
                problems[i] += _checked(checks.check_threshold_steps, run.outputs[i][1], steps.get(i, 0))
    if deep:
        deep_search_checks(searches, run, seed, problems)
    return problems


def deep_search_checks(searches: dict[int, str], run: Pass, seed: int, problems) -> None:
    """Full orbit inventories; co-chromatic groups and pairs against brute force."""
    from signedchrom.equivalence import enumerate_classes
    from signedchrom.graphs import parse_graph

    candidates = []
    for i, text in searches.items():
        stdout = run.outputs[i][1]
        if problems[i]:
            continue
        inventory = enumerate_classes(parse_graph(text), "switching_iso")
        problems[i] += _checked(checks.check_orbits, text, stdout, inventory)
        if checks.parse_sg(text)[0] == 5 and not problems[i]:  # small enough to count every class
            problems[i] += _checked(checks.check_groups_by_brute_force, stdout, inventory)
        if problems[i]:
            continue
        for group in json.loads(stdout)["details"]["cochromatic_groups"]:
            candidates.append((i, group["classes"][0], group["classes"][1], group["pair"]))
    for i, a, b, pair in random.Random(seed).sample(
        candidates, min(SPOT_CHECK_PAIRS, len(candidates))
    ):
        problems[i] += checks.check_pair_by_brute_force(a, b, pair)


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def request_latencies(passes: list[Pass], seconds=lambda start, end: end - start) -> list[float]:
    """Each request's latency, as its median over the passes that ran it."""
    return [
        statistics.median(seconds(*run.latencies[j]) for run in passes if len(run.latencies) > j)
        for j in range(max(len(run.latencies) for run in passes))
    ]


def end_to_end(passes: list[Pass], setups: list[tuple[float, float]],
               samples: list[tuple[float, float]]) -> dict[str, float]:
    def seconds(start: float, end: float) -> float:
        return reference_seconds(samples, start, end)

    latencies = request_latencies(passes, seconds) or [0.0]
    return {
        "wall_s": statistics.median(seconds(run.start, run.start + run.wall_s) for run in passes),
        "setup_s": statistics.median([seconds(*s) for s in setups] or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "request_ms_p50": 1000 * statistics.median(latencies),
        "request_ms_p95": 1000 * percentile(latencies, 0.95),
    }


def per_layer(plain: Pass, traced: Pass, names: list[str]) -> dict[str, float]:
    span_names = [name for name in names if not name.startswith(PROCESS_PREFIXES)]
    values = spans.summarize(traced.load_spans(), span_names)
    values.update({
        "proc.cpu_s": traced.cpu_s,
        "proc.offcpu_s": traced.wall_s - traced.cpu_s,
        "trace.wall_s": traced.wall_s,
        "trace.setup_s": traced.setup_s,
        "trace.teardown_s": traced.teardown_s,
        "trace.unaccounted_s": (
            traced.wall_s - traced.setup_s - values["spans.root_s"] - traced.teardown_s
        ),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk", "k7", "threshold12", "cochromatic-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "signedchrom" / "cli.py").is_file():
        print("error: run from the repository root; src/signedchrom not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the deep checks import the program
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    (root / "bench" / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / "bench" / "_work"))
    sampler, samples = None, []
    try:
        workload = build_workload(args.workload, args.seed, work)
        runner = Runner(root, work, started + RUN_LIMIT_S)
        if not args.trace:
            pin_to_one_cpu()
            sampler = SpeedSampler(root, work)
        runner.setup_probe()  # warm the bytecode cache; users do not pay that per run
        passes = [runner.run_pass(workload, trace=False)]
        if args.trace:
            if not passes[0].aborted:
                passes.append(runner.run_pass(workload, trace=True))
            setups = []
        else:
            window_end = min(started + args.seconds, runner.deadline - 15)
            while not passes[-1].aborted and perf_counter() + passes[-1].wall_s <= window_end:
                passes.append(runner.run_pass(workload, trace=False))
            setups = [s for s in (runner.setup_probe() for _ in range(SETUP_PROBES)) if s]
            samples = sampler.stop()
        problems = []
        for i, run in enumerate(passes):
            problems += check_pass(workload, run, args.seed, deep=(i == 0))
        failed = [p for p in problems if p]
        complete = not passes[-1].aborted and (args.trace or (setups and samples))

        if args.trace:
            values = per_layer(*passes, list(units)) if complete else dict.fromkeys(units, 0)
            keep = work.parent / f"spans-{args.workload}"  # the latest traced run
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir()
            for path in passes[-1].span_files:
                if path.exists():
                    shutil.move(str(path), keep / path.name)
        else:
            values = end_to_end(passes, setups, samples) if complete else dict.fromkeys(units, 0)
        latencies = request_latencies([run for run in passes if not run.span_files])
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "passes": len(passes),
            "pass_wall_s": [run.wall_s for run in passes],
            "pass_reference_s": [
                reference_seconds(samples, run.start, run.start + run.wall_s) for run in passes
            ] if samples else [],
            "request_median_s": dict(zip(workload.labels, latencies)) if len(latencies) <= 8 else {},
            "machine": machine_facts(),
            "failed_checks": failed[:5],
        }))
        print(json.dumps({
            "correct": not failed and bool(complete),
            "attempted": len(problems),
            "failed": len(failed),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

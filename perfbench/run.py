"""The stuquandle benchmark: seeded CLI workloads, checked against
independent oracles, with end-to-end and traced per-layer metrics.

    python3 perfbench/run.py --workload verify_family --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one process each

Run from the repository root. A workload is a closed loop with one client:
jobs run one after another, each a `stuquandle` CLI invocation made
in-process through `stuquandle.cli.main(argv)` on freshly generated input
files. Jobs come in cycles of one job per cost class, each cycle on a
freshly imported package, and the run stops after the first whole cycle
that brings the summed job time to --seconds (and at least MIN_JOBS
jobs). With --trace 1 each cycle is replayed under spans (see spans.py)
right after it runs, and the per-layer metrics are printed instead of the
end-to-end ones.

End-to-end times are scaled to a fixed machine speed: a short probe loop
that never touches the program runs between jobs, and each time is
multiplied by REF_PROBE_NS over the probe's time around it (see probe()).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import golden
import jobs
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 1
MIN_JOBS = 100          # so that ten jobs or more lie beyond the pooled 90th percentile
MAX_JOBS = 3000         # bounds a run's set-up and checking time on fast code
PEAK_SAMPLE = 8         # enumerations re-run under tracemalloc, most colorings first
KEEP_STDOUT = 1 << 16   # longer outputs are kept as digests only
PROBE_STEPS = 10_000
REF_PROBE_NS = 1_500_000  # the reference speed: the probe takes 1.5 ms


def warmup_job(workload: str) -> jobs.Job:
    """A small job of the workload's command, run once per set-up."""
    if workload == "verify_family":
        return jobs.Job(["verify", "X.json"], {"X.json": jobs.affine_doc(5, 2, 3, 4)}, valid=True)
    if workload == "rna_convert":
        return jobs.Job(["rna", "convert", "arc.json"],
                        {"arc.json": jobs.random_arc_diagram(random.Random(0), 20)})
    pres = oracle.convert_arc(jobs.strand_diagram(1, "nested", "+-+-"))
    if workload == "phi_affine":
        return jobs.Job(["phi", "P.json", "X.json"],
                        {"P.json": pres, "X.json": jobs.affine_doc(4, 3, 2, 3)})
    left = right = jobs.FACTORS["X_ex72"]
    sigma = list(range(9))
    return jobs.Job(["color", "P.json", "X.json"],
                    {"P.json": pres, "X.json": jobs.product_doc(left, right, sigma)},
                    factors=(left, right, sigma))


def run_cli(cli, argv):
    """(exit code, stdout, stderr, ns) of one in-process CLI call; an
    exception is reported as exit code None with the exception text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a dead run
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        ns = time.perf_counter_ns() - t0
    return code, out.getvalue(), err.getvalue(), ns


def probe() -> int:
    """ns for a fixed piece of pure-Python dict, list and integer work
    that never touches the program: the machine's current speed.

    Other tenants of a shared machine slow everything by up to 40%, for
    seconds to minutes at a time. On the 2-core virtual machine this
    benchmark was built on, the 5-second medians of one verify job and of
    this loop, run in turn for 110 s, moved together with correlation
    0.995: their ratio spread 0.04 while each spread 0.39. Scaling a time by REF_PROBE_NS / probe() therefore keeps
    what the program does and drops most of what the neighbours do."""
    t0 = time.perf_counter_ns()
    d: dict[int, int] = {}
    row = list(range(64))
    for i in range(PROBE_STEPS):
        k = row[i & 63] ^ (i >> 3)
        d[k] = d.get(k, 0) + i
    return time.perf_counter_ns() - t0


def at_ref(ns: float, probe_ns: float) -> float:
    """ns measured while the probe took probe_ns, at the reference speed."""
    return ns * REF_PROBE_NS / probe_ns


def unload():
    """Drop the package from sys.modules."""
    for name in [m for m in sys.modules if m == "stuquandle" or m.startswith("stuquandle.")]:
        del sys.modules[name]


def fresh_import():
    """Import stuquandle.cli afresh (the catalog is rebuilt)."""
    unload()
    return importlib.import_module("stuquandle.cli")


def set_up(warm_argv):
    """One set-up as a fresh CLI process pays it: import, then the
    warm-up job. Returns (cli module, seconds, warm-up result)."""
    t0 = time.perf_counter()
    cli = fresh_import()
    code, out, err, _ = run_cli(cli, warm_argv)
    return cli, time.perf_counter() - t0, (code, out, err)


class Result:
    __slots__ = ("job", "argv", "code", "out", "out_sha", "err", "ns", "probe_ns")

    def __init__(self, job, argv, code, out, err, ns, probe_ns):
        self.job, self.argv, self.code, self.err, self.ns = job, argv, code, err, ns
        self.probe_ns = probe_ns  # mean probe time just before and just after
        self.out_sha = jobs.sha(out)
        self.out = out if len(out) <= KEEP_STDOUT else None

    def digest(self) -> str:
        return hashlib.sha256(f"{self.code}\0{self.out_sha}\0{self.err}".encode()).hexdigest()[:16]

    def problem(self) -> str | None:
        if self.code is None:
            return f"exception: {self.err.strip()}"
        return self.job.check(self.code, self.out, self.out_sha, self.err)


def run_jobs(workload: str, seed: int, seconds: float, folder: Path,
             start_cycle, end_cycle=None) -> list[list[Result]]:
    """Run whole cycles until their summed job time reaches `seconds` and
    at least MIN_JOBS jobs ran; returns the results cycle by cycle. Each
    cycle runs on the CLI module that `start_cycle()` returns, and
    `end_cycle(results)` follows it."""
    cycles: list[list[Result]] = []
    busy = count = 0
    for cycle in jobs.WORKLOADS[workload](random.Random(f"{workload}:{seed}")):
        # Release the previous cycle's package, collect, then freeze what
        # survives: the collector then skips the benchmark's own objects
        # (results, job lists) during the set-up and the jobs, as it would
        # in a fresh CLI process that has none, and only one copy of the
        # package is ever alive.
        cli = None
        unload()
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        cli = start_cycle()
        done = []
        before = probe()
        for job in cycle:
            argv = job.write(folder, f"j{count}")
            count += 1
            code, out, err, ns = run_cli(cli, argv)
            after = probe()
            done.append(Result(job, argv, code, out, err, ns, (before + after) / 2))
            before = after
            busy += ns
        cycles.append(done)
        if end_cycle:
            end_cycle(done)
        if (busy >= seconds * 1e9 and count >= MIN_JOBS) or count >= MAX_JOBS:
            break
    return cycles


def problems(workload: str, seed: int, results: list[Result]) -> list[tuple]:
    """(job index, reason) for every output check that fails."""
    found = []
    for i, r in enumerate(results):
        why = r.problem()
        if why is not None:
            found.append((i, f"{' '.join(r.job.argv)}: {why}"))
    if seed == DEFAULT_SEED:
        for i, (r, want) in enumerate(zip(results, golden.DIGESTS[workload])):
            if r.digest() != want:
                found.append((i, f"output digest {r.digest()} differs from frozen {want}"))
    return found


def end_to_end(cycles: list[list[Result]], failed: int, setup: list[float], rss_kb: int) -> dict:
    """Times at the reference speed. Latency percentiles over all of the
    run's jobs; throughput as the median over cycles of each cycle's rate.
    Every cycle holds the same mix of job sizes, so a median over cycles
    keeps a few cycles the probe did not fully correct from moving the
    rate."""
    ms = [at_ref(r.ns, r.probe_ns) / 1e6 for cycle in cycles for r in cycle]
    attempted = len(ms)
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": statistics.median(
            len(c) / (sum(at_ref(r.ns, r.probe_ns) for r in c) / 1e9) for c in cycles),
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10)[8],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss_kb / 1024,
    }


class Replay:
    """Replays each finished cycle under spans, right after its untraced
    run, so that both see the machine in the same state. A fresh import
    comes first, so nothing the program cached while running the cycle
    untraced carries over into the replay."""

    def __init__(self):
        self.tr = spans.Tracer()
        self.counts: Counter = Counter()
        self.found: list[tuple] = []
        self.results: list[Result] = []
        self.enumerated: list[tuple[int, int]] = []  # (colorings, job index)

    def __call__(self, cycle: list[Result]) -> None:
        fresh_import()
        for r in cycle:
            i = self.tr.job_id = len(self.results)
            self.results.append(r)
            before = self.counts["presentation.colorings"]
            code, out, err = spans.replay(self.tr, r.argv, self.counts)
            if (code, jobs.sha(out), err) != (r.code, r.out_sha, r.err):
                self.found.append((i, "traced output differs from the untraced run"))
            if r.job.argv[0] in ("color", "phi"):
                self.enumerated.append((self.counts["presentation.colorings"] - before, i))

    def metrics(self, trace_path: Path) -> dict:
        """The per-layer metrics; also writes the spans to trace_path."""
        from stuquandle import formats, presentation

        tr, counts = self.tr, self.counts
        by_name, broken, unbalanced = tr.totals()
        if broken or unbalanced:
            self.found.append((None, f"{broken} spans break nesting, "
                                     f"{unbalanced} jobs do not add up"))
        tr.write(trace_path)
        for r in self.results:
            if "X.json" in r.job.files:
                counts["algebra.axiom_evals"] += r.job.violation()[1]
            counts["formats.bytes_in"] += sum(os.path.getsize(a) for a in r.argv
                                              if a.endswith(".json"))

        peak = 0
        for _, i in sorted(self.enumerated, reverse=True)[:PEAK_SAMPLE]:
            argv = self.results[i].argv
            P = formats.load_presentation(argv[1])
            X = formats.load_stuquandle(argv[2])
            tracemalloc.start()
            presentation.enumerate_colorings(P, X)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

        def ms(span):
            return by_name.get(span, (0, 0))[0] / 1e6

        def calls(span):
            return by_name.get(span, (0, 0))[1]

        traced_ns = sum(tr.end[s] - tr.start[s] for s in range(len(tr.start)) if tr.parent[s] < 0)
        untraced_ns = sum(r.ns for r in self.results)
        timed = ("formats.parse", "formats.emit", "cli.output", "algebra.verify",
                 "polynomial.stqp", "algebra.closure", "polynomial.subpoly", "polynomial.render",
                 "presentation.enumerate", "presentation.compile", "rna.convert",
                 "rna.self_closure")
        metrics = {f"{span}_ms": ms(span) for span in timed}
        closures = calls("algebra.closure")
        metrics.update({
            "trace.gap_ms": ms(spans.ROOT),
            "formats.bytes_in": counts["formats.bytes_in"],
            "formats.bytes_out": counts["formats.bytes_out"],
            "algebra.verify_calls": calls("algebra.verify"),
            "algebra.axiom_evals": counts["algebra.axiom_evals"],
            "algebra.closure_calls": closures,
            "algebra.distinct_images": counts["algebra.distinct_images"],
            "algebra.image_reuse": (1 - counts["algebra.distinct_images"] / closures
                                    if closures else 0.0),
            "polynomial.subpoly_calls": calls("polynomial.subpoly"),
            "presentation.enumerate_calls": calls("presentation.enumerate"),
            "presentation.colorings": counts["presentation.colorings"],
            "presentation.generators": counts["presentation.generators"],
            "presentation.relations": counts["presentation.relations"],
            "presentation.enumerate_peak_kb": peak / 1024,
            "rna.arcs": counts["rna.arcs"],
            "rna.stripes": counts["rna.stripes"],
            "trace.overhead_frac": traced_ns / untraced_ns - 1,
        })
        return metrics


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    folder = WORK / f"run-{os.getpid()}"
    folder.mkdir(parents=True, exist_ok=True)
    try:
        warm = warmup_job(args.workload)
        warm_argv = warm.write(folder, "warm")
        imported = fresh_import().__file__
        if not Path(imported).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: imported {imported}, not the sources under {SRC}")

        # Every cycle starts with a set-up, so no module state of the
        # program outlives a cycle, and set-ups are spread over the run
        # like the jobs.
        setup, warm_outputs = [], set()

        def start_cycle():
            before = probe()
            cli, seconds, outcome = set_up(warm_argv)
            setup.append(at_ref(seconds, (before + probe()) / 2))
            warm_outputs.add(outcome)
            return cli

        replay = Replay() if args.trace else None
        cycles = run_jobs(args.workload, args.seed, args.seconds, folder, start_cycle, replay)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results = [r for cycle in cycles for r in cycle]

        found = problems(args.workload, args.seed, results)
        for code, out, err in warm_outputs:
            warm_problem = warm.check(code, out, jobs.sha(out), err)
            if warm_problem:
                found.append((None, f"warm-up job: {warm_problem}"))
        if replay:
            metrics = replay.metrics(WORK / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
            found += replay.found
            wanted = spec["per_layer"]
        failed = len({i for i, _ in found if i is not None})
        if not replay:
            metrics = end_to_end(cycles, failed, setup, rss_kb)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(folder, ignore_errors=True)

    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise SystemExit("perfbench: computed metrics do not match BENCHMARK.json")
    for i, why in found[:20]:
        print(f"FAIL {args.workload} job {i}: {why}")
    report = {}
    for m in wanted:
        value = metrics[m["name"]]
        report[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:16} {m['name']:32} {value:14.6g} {m['unit']:6} "
              f"{m['better']} is better, {len(results)} jobs in {len(cycles)} cycles")
    probes = statistics.median(r.probe_ns for r in results) / 1e6
    print(f"{args.workload:16} times scaled to a probe of {REF_PROBE_NS / 1e6} ms; "
          f"its median here was {probes:.4f} ms")
    print(json.dumps({"correct": not found, "attempted": len(results),
                      "failed": failed, "metrics": report}))
    return 0 if not found else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main() -> int:
    if not (SRC / "stuquandle" / "cli.py").is_file():
        print(f"perfbench: no stuquandle sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

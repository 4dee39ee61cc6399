"""occmatch benchmark: one workload through synth -> supervise -> voxelize ->
match -> eval, driven in-process through occmatch.cli.main.

    python3 bench/run.py --workload fixtures-192 --seed 0 --seconds 45 --trace 0

The program is imported from src/ next to this directory. With --trace 0
the run measures the end-to-end metrics; with --trace 1 it runs each case
untraced, with spans and with memory tracing, and reports the per-layer
metrics instead. The last line of stdout is the result JSON. Details
(per-stage percentiles, output digests, per-iteration times, spans) go to
.bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
import speed
import workloads
from summary import high_percentile, median, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9  # at least this many set-ups are timed per untraced run
STAGES = spans.COMMANDS

# One BLAS thread: the digests then do not depend on the machine's core
# count (threaded reductions may sum in another order), and the timings
# suffer less from other load on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

def time_setup(workload: str, seed: int, input_dir: Path) -> tuple[float, float]:
    """Seconds one fresh interpreter takes to import occmatch and write the
    workload's inputs, and the seconds of the speed kernel after it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(input_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, reference = proc.stdout.split()
    return float(setup), float(reference)


@dataclass
class Iteration:
    case: int
    # "plain" is untraced; "spans" records spans around the layers;
    # "memory" records tracemalloc peaks per command. Memory tracing slows
    # every allocation, so it runs apart from the timed spans.
    mode: str
    pairs: int
    times: dict = field(default_factory=lambda: {s: [] for s in STAGES})

    @property
    def seconds(self) -> float:
        return sum(sum(v) for v in self.times.values())


class Runner:
    """Runs the cases of one workload through `cli_main`, checks every
    command's outputs and keeps the measurements."""

    def __init__(self, workload: workloads.Workload, work_dir: Path, cli_main) -> None:
        self.workload = workload
        self.work = work_dir
        self.cli_main = cli_main
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple, str] = {}  # (case, pair, command) -> first run's digest
        self.runs_per_case = [0] * len(workload.cases)
        self.iterations: list[Iteration] = []
        self.traced: list[spans.TracedIteration] = []
        self.peaks: dict[str, int] = {}  # command -> largest tracemalloc peak, bytes
        self.auc5: dict[int, float] = {}  # case -> AUC@5 of its eval report
        self.vv = [0, 0]  # GT vv pairs found, GT vv pairs (first run of each case)

    def command(self, it: Iteration, stage: str, argv: list, outputs: list, key: tuple) -> None:
        self.attempted += 1
        if it.mode == "memory":
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if it.mode == "spans":
                    with self.tracer.span(f"cli.{stage}"):
                        rc = self.cli_main(argv)
                else:
                    rc = self.cli_main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback escaping the CLI is a failed operation
            traceback.print_exc()
            rc = "exception"
        it.times[stage].append(time.perf_counter() - t0)
        if it.mode == "memory":
            self.peaks[stage] = max(self.peaks.get(stage, 0), tracemalloc.get_traced_memory()[1])

        errors = [f"exit code {rc}"] if rc != 0 else checks.check_outputs(outputs)
        if not errors and stage == "match":
            bad = checks.unrefined(checks.read_matches(outputs[-1]))
            if bad:
                errors.append(f"{bad} matches without refined points")
        if not errors:
            d = checks.digest(outputs)
            if d != self.digests.setdefault(key, d):
                errors.append("outputs differ from the first run of the same seed")
        if errors:
            self.failed += 1
            print(f"FAILED case {key[0]} {key[1]} {stage}: {'; '.join(errors)}", file=sys.stderr)

    def run_case(self, j: int, mode: str = "plain") -> None:
        case = self.workload.cases[j]
        case_dir = self.work / f"case{j}"
        shutil.rmtree(case_dir, ignore_errors=True)
        it = Iteration(j, mode, len(case.pairs))
        seed = ["--seed", str(case.seed)]
        first_span = len(self.tracer.spans)
        for pair in case.pairs:
            pd = case_dir / pair.name
            commands = {
                "synth": ["synth", *pair.synth_args, "--out", str(pd)],
                "supervise": ["supervise", "--pair", str(pd)],
                "voxelize": ["voxelize", "--pair", str(pd)],
                "match": ["match", "--pair", str(pd), *seed, *pair.match_args],
            }
            self.tracer.pair = f"{len(self.iterations)}:{pair.name}"
            for stage, argv in commands.items():
                outputs = [pd / name for name in checks.OUTPUTS[stage]]
                self.command(it, stage, argv, outputs, (j, pair.name, stage))
        self.tracer.pair = f"{len(self.iterations)}:eval"
        curve, report = [case_dir / name for name in checks.OUTPUTS["eval"]]
        argv = ["eval", "--matches", *(str(case_dir / p.name / "matches.jsonl") for p in case.pairs),
                "--manifests", *(str(case_dir / p.name / "manifest.json") for p in case.pairs),
                *seed, "--out-report", str(report), "--out-curve", str(curve)]
        self.command(it, "eval", argv, [curve, report], (j, "eval", "eval"))

        if self.runs_per_case[j] == 0:
            self.record_quality(j, case_dir)
        self.runs_per_case[j] += 1
        self.iterations.append(it)
        if mode == "spans":
            self.traced.append(spans.TracedIteration(self.tracer.spans[first_span:], it.pairs))

    def record_quality(self, j: int, case_dir: Path) -> None:
        try:
            report = json.loads((case_dir / "report.json").read_text(encoding="utf-8"))
            self.auc5[j] = float(report["auc"]["5"])
            for pair in self.workload.cases[j].pairs:
                sup = json.loads((case_dir / pair.name / "supervision.json").read_text(encoding="utf-8"))
                hits, total = checks.vv_hits(sup, checks.read_matches(case_dir / pair.name / "matches.jsonl"))
                self.vv[0] += hits
                self.vv[1] += total
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            print(f"FAILED case {j}: cannot read quality figures: {exc}", file=sys.stderr)


def run_iterations(runner: Runner, seconds: float, trace: bool, setup_dir: Path) -> list[tuple]:
    """Cases in turn, wrapping round to the first, until the next iteration
    would end past `seconds`. An untraced run does every case once and at
    least one rerun, so a seed's outputs are compared with a rerun; a traced
    run does each case plain, with spans and with memory tracing, and at
    least the first case.

    An untraced run also times a set-up and the speed kernel after every
    iteration, so that they sample the whole run rather than one moment of
    it, and returns the (set-up, kernel) times."""
    n = len(runner.workload.cases)
    least = 1 if trace else n + 1
    probes = 0 if trace else -(-SETUP_REPEATS // least)
    probed = []
    start = time.perf_counter()
    i = 0
    while True:
        j = i % n
        runner.run_case(j)
        if trace:
            with runner.tracer.installed():
                runner.run_case(j, "spans")
            tracemalloc.start()
            try:
                runner.run_case(j, "memory")
            finally:
                tracemalloc.stop()
        probed += [time_setup(runner.workload.name, runner.workload.seed, setup_dir)
                   for _ in range(probes)]
        i += 1
        if i >= least and (time.perf_counter() - start) * (i + 1) / i > seconds:
            return probed


def pairs_per_s(runner: Runner, mode: str) -> float:
    return median([it.pairs / it.seconds for it in runner.iterations if it.mode == mode])


def end_to_end(runner: Runner, probed: list[tuple]) -> dict:
    """The end-to-end metrics. Times and pairs_per_s are scaled to the
    reference machine speed (speed.py): `scale` is REFERENCE_S over the
    speed kernel's median time in this run."""
    plain = [it for it in runner.iterations if it.mode == "plain"]
    scale = speed.REFERENCE_S / median([ref for _, ref in probed])
    metrics = {"setup_s": (median([setup for setup, _ in probed]) * scale, "s")}
    for stage in STAGES:
        metrics[f"{stage}_s"] = (median([t for it in plain for t in it.times[stage]]) * scale, "s")
    metrics["pairs_per_s"] = (pairs_per_s(runner, "plain") / scale, "pairs/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    metrics["auc5"] = (sum(runner.auc5.values()) / max(len(runner.auc5), 1), "%")
    metrics["vv_recall"] = (runner.vv[0] / max(runner.vv[1], 1), "fraction")
    metrics["ok_frac"] = (1.0 - runner.failed / runner.attempted, "fraction")
    return metrics


def per_layer(runner: Runner) -> dict:
    overhead = pairs_per_s(runner, "plain") / pairs_per_s(runner, "spans") - 1.0
    values = spans.layer_metrics(runner.traced, runner.peaks, overhead)
    return {name: (value, spans.UNITS[name]) for name, value in values.items()}


def stage_summary(iterations: list[Iteration]) -> dict:
    """Median and the highest percentile with ten samples beyond it, with
    the sample count, per stage."""
    out = {}
    for stage in STAGES:
        values = [t for it in iterations for t in it.times[stage]]
        row = {"n": len(values), "median_s": median(values)}
        p = high_percentile(len(values))
        if p is not None:
            row[f"p{p:g}_s"] = percentile(values, p)
        out[stage] = row
    return out


def write_details(args, runner: Runner, metrics: dict, probed: list[tuple]) -> dict:
    digests: dict = {}
    for (j, pair, stage), d in sorted(runner.digests.items()):
        digests.setdefault(f"case{j}", {})[f"{pair}/{stage}"] = d
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "case_seeds": [c.seed for c in runner.workload.cases],
        "runs_per_case": runner.runs_per_case,
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "stages": stage_summary([it for it in runner.iterations if it.mode == "plain"]),
        "pairs_per_s": pairs_per_s(runner, "plain"),
        "setup_s": [setup for setup, _ in probed],
        "speed_kernel_s": [ref for _, ref in probed],
        "reference_s": speed.REFERENCE_S,
        "scale": speed.REFERENCE_S / median([ref for _, ref in probed]) if probed else None,
        "workload_digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "digests": digests,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "iterations": [{"case": it.case, "mode": it.mode, "times": it.times}
                       for it in runner.iterations],
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in runner.tracer.spans:
                fh.write(json.dumps(s.to_json()) + "\n")
    return details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "occmatch" / "__init__.py").is_file():
        print(f"error: the occmatch sources are missing: no {SRC / 'occmatch'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported, by occmatch
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from occmatch import cli

    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        workload = workloads.write_inputs(args.workload, args.seed, work / "inputs")
        runner = Runner(workload, work, cli.main)
        probed = run_iterations(runner, args.seconds, bool(args.trace), work / "setup")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(runner) if args.trace else end_to_end(runner, probed)
    details = write_details(args, runner, metrics, probed)
    print(f"workload {args.workload} seed {args.seed}: case seeds {details['case_seeds']}, "
          f"runs per case {runner.runs_per_case}, {BLAS_THREADS} BLAS thread")
    if details["scale"] is not None:
        print(f"  raw wall times per command; times below are scaled by {details['scale']:.4f} "
              "to the reference machine speed")
    for stage, row in details["stages"].items():
        print(f"  {stage:<9} " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))
    print(f"  outputs sha256 {details['workload_digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and max(runner.runs_per_case) >= 2,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

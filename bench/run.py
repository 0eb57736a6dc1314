#!/usr/bin/env python3
"""Benchmark of the twospecies toolkit.

Run from the repository root:

    python3 bench/run.py --workload sandwich --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --self-check

The workloads are in workloads.py.  With --trace 0 the run repeats the
workload's closed-loop body until --seconds are used (at least once) and
reports the end-to-end metrics: setup_s (median of fresh-process set-ups:
imports plus building the generated inputs), wall_s (mean time of a body,
that is to a verified result), both at reference speed (see CAL_REF_S),
peak_rss_mb (peak resident memory of this process) and pass_rate
(1 - failed / attempted operations).  With
--trace 1 it runs the body twice untraced (a warm-up, then the baseline) and
once traced, and reports the per-layer metrics of layers.py from the traced
pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record (environment, seeds, generated
configs, every sample and failure) and, when traced, the spans are written
to .bench_out/ in the repository root.
"""
import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 9
# Other tenants of a shared host slow this process by up to a half for
# minutes at a time, and every pass alike.  So each timed stretch is
# bracketed by a calibration: a fixed block of interpreter and numpy work
# that belongs to the benchmark, not to the program.  Times are reported at
# reference speed: scaled by CAL_REF_S over the block's mean time around the
# stretch.  The raw times are kept in the run record.
CAL_SLICES = 40
CAL_REF_S = 0.2


def import_program():
    """Import the program from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "twospecies" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {src}")
    sys.path.insert(0, str(src))
    import twospecies
    if Path(twospecies.__file__).resolve().parent != src / "twospecies":
        raise SystemExit(
            f"error: imported twospecies from {twospecies.__file__}")


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, tag: str, fn):
        """Run one operation; fn returns (problems, result).  An exception
        is a failure of the operation, never of the run."""
        self.attempted += 1
        try:
            problems, result = fn()
        except Exception as exc:  # the run must go on and report it
            problems, result = [f"{type(exc).__name__}: {exc}"], None
        if problems:
            self.failed += 1
            self.failures.append(f"{tag}: {'; '.join(problems)}")
        return result


class Iteration:
    """One pass of a workload body: CLI calls and library checks."""

    def __init__(self, ledger: Ledger, directory: Path, tracer=None):
        self.ledger = ledger
        self.dir = directory
        self.tracer = tracer
        self.walls: dict[str, float] = {}
        self.output_bytes = 0
        self.wall = 0.0

    def _call(self, name: str, tag: str, fn, *args):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args)
            return self.tracer.call(name, fn, args, tag=tag)
        finally:
            self.walls[tag] = time.perf_counter() - start

    def cli(self, tag: str, command: str, config: str, flags=(), check=None):
        """`twospecies <command>` in-process; returns its report or None."""
        from twospecies import cli
        out = self.dir / tag
        argv = [command, "--config", config, "--out", str(out), *flags]

        def run():
            status = self._call("cli." + command.replace("-", "_"), tag,
                                cli.main, argv)
            if out.is_dir():
                self.output_bytes += sum(f.stat().st_size
                                         for f in out.iterdir() if f.is_file())
            if status != 0:
                return [f"exit status {status}"], None
            report = json.loads((out / "report.json").read_text())
            return check(report), report
        return self.ledger.attempt(tag, run)

    def op(self, tag: str, fn) -> None:
        """A library-level check; fn returns the problems it found."""
        self.ledger.attempt(
            tag, lambda: (self._call("bench.op", tag, fn), None))


def calibration_block() -> float:
    """Seconds the calibration block takes now."""
    import numpy as np
    x = np.random.default_rng(0).random(20_000)
    start = time.perf_counter()
    for _ in range(CAL_SLICES):
        acc = 0
        for k in range(60_000):
            acc += k * k
        for _ in range(10):
            np.sort(x)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, cal_before: float, cal_after: float
                       ) -> float:
    return seconds * 2.0 * CAL_REF_S / (cal_before + cal_after)


def run_body(wl, inp, ref, ledger, directory: Path, tracer=None) -> Iteration:
    it = Iteration(ledger, directory, tracer)
    start = time.perf_counter()
    wl.body(it, inp, ref)
    it.wall = time.perf_counter() - start
    shutil.rmtree(directory, ignore_errors=True)
    return it


def build_inputs(args, directory: Path):
    """Set-up: the program's imports and the workload's generated inputs."""
    import twospecies.cli  # noqa: F401
    import workloads
    size = workloads.TINY if args.tiny else workloads.FULL
    inp = workloads.WORKLOADS[args.workload].build(args.seed, size)
    inp.write(directory)
    return inp


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes: interpreter-level imports, the
    program and numpy, and generating this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def git_sha() -> str | None:
    """HEAD of this checkout; None outside a git repository (the ceiling
    keeps git from finding a repository that merely encloses it)."""
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "git_sha": git_sha()}


def write_spans(path: Path, spans) -> None:
    t0 = min((s.start for s in spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        fh.write("sid,name,start,end,parent,tag\n")
        for s in spans:
            fh.write(f"{s.sid},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                     f"{'' if s.parent is None else s.parent},{s.tag or ''}\n")


def measure(args) -> dict:
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ref = None
    if not args.tiny:
        ref = json.loads((BENCH / "reference.json").read_text())
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "environment": environment(),
              "unexercised_layers": workloads.UNEXERCISED}
    ledger = Ledger()

    if args.trace == 0:
        cal_setup = calibration_block()
        setup = setup_samples(args)
        inp = build_inputs(args, run_dir / "inputs")
        passes, cals = [], [calibration_block()]
        start = time.perf_counter()
        while True:
            it = run_body(wl, inp, ref, ledger, run_dir / f"pass{len(passes)}")
            passes.append(it)
            cals.append(calibration_block())
            if time.perf_counter() - start + it.wall > args.seconds:
                break
        walls = [at_reference_speed(it.wall, cals[i], cals[i + 1])
                 for i, it in enumerate(passes)]
        metrics = {
            "setup_s": (at_reference_speed(statistics.median(setup),
                                           cal_setup, cals[0]),
                        "s", len(setup)),
            # A run holds two to five passes: their mean uses every pass,
            # where a median of so few would drop most of them.
            "wall_s": (statistics.fmean(walls), "s", len(walls)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB", 1),
            "pass_rate": (1.0 - ledger.failed / max(ledger.attempted, 1),
                          "ratio", ledger.attempted),
        }
        record |= {"setup_s_samples": setup,
                   "calibration_s": [cal_setup, *cals],
                   "walls_at_reference_speed": walls}
    else:
        import layers
        from spans import Tracer
        inp = build_inputs(args, run_dir / "inputs")
        # The first pass only warms caches and lazy imports; the second is
        # the untraced baseline the traced pass is compared with.
        warmup = run_body(wl, inp, ref, ledger, run_dir / "warmup")
        cals = [calibration_block()]
        untraced = run_body(wl, inp, ref, ledger, run_dir / "untraced")
        cals.append(calibration_block())
        tracer = Tracer()
        with layers.installed(tracer):
            traced = run_body(wl, inp, ref, ledger, run_dir / "traced", tracer)
        cals.append(calibration_block())
        passes = [warmup, untraced, traced]
        values = layers.per_layer(
            tracer, untraced, traced, dict(inp.size.hydro),
            overhead=at_reference_speed(traced.wall, *cals[1:])
            / at_reference_speed(untraced.wall, *cals[:2]) - 1.0)
        metrics = {k: (v, layers.METRICS[k], 1) for k, v in values.items()}
        write_spans(run_dir / "spans.csv.gz", tracer.spans)
        record["n_spans"] = len(tracer.spans)
        record["calibration_s"] = cals

    record |= {
        "inputs": inp.record(),
        "passes": [{"wall_s": it.wall, "walls": it.walls} for it in passes],
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures[:100],
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print(f"record: {run_dir / 'record.json'}")
    for line in ledger.failures[:20]:
        print(f"failed: {line}")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in metrics.items()}}


def setup_probe(args) -> None:
    probe_dir = OUT / f"probe-{os.getpid()}"
    try:
        build_inputs(args, probe_dir)
        elapsed = time.perf_counter() - _T_START
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def expect(ok: bool, what) -> None:
    """A self-check condition; unlike assert it survives python -O."""
    if not ok:
        raise SystemExit(f"self-check failed: {what}")


def self_check() -> None:
    """Tiny-size run of every workload in both modes: every metric of
    BENCHMARK.json is emitted with its unit, the exact counts repeat, and
    the self-time arithmetic holds on a synthetic span tree."""
    import layers
    import workloads
    from spans import Span, SpanTable, Tracer

    spans = [Span(1, "root", 0.0, 10.0, None, None),
             Span(2, "a", 1.0, 3.0, 1, None), Span(3, "b", 2.0, 5.0, 1, None),
             Span(4, "c", 8.0, 12.0, 1, None), Span(5, "d", 2.5, 4.5, 3, None)]
    table = SpanTable(spans)
    for sid, expected in ((1, 4.0), (2, 2.0), (3, 1.0), (4, 4.0), (5, 2.0)):
        got = table.self_time(spans[sid - 1])
        expect(abs(got - expected) < 1e-12, ("self time", sid, got, expected))
    expect(table.descendants(spans[0]) == {2, 3, 4, 5}, "descendants")
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", time.sleep, (0.02,)))
    inner, outer = tracer.spans
    expect(inner.parent == outer.sid and outer.parent is None, "parent link")
    expect(SpanTable(tracer.spans).self_time(outer) < outer.duration - 0.015,
           "live self time")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(wanted[1] == layers.METRICS, set(wanted[1]) ^ set(layers.METRICS))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workload names")
    for name in workloads.WORKLOADS:
        exact = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", "7", "--seconds", "1", "--trace",
                   str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            expect(proc.returncode == 0, (name, trace, proc.stderr[-2000:]))
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   (name, trace, "result keys"))
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, proc.stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   (name, trace, set(got) ^ set(wanted[trace])))
            for k, v in result["metrics"].items():
                expect(set(v) == {"value", "unit"}
                       and isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"]), (name, k, v))
            if trace == 1:
                exact.append({k: result["metrics"][k]["value"]
                              for k in layers.EXACT_COUNTS})
        expect(exact[0] == exact[1], (name, "exact counts differ", exact))
        print(f"self-check {name}: ok {exact[0]}")
    print("self-check: ok")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check size instead of the benchmark size")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    import_program()
    if args.self_check:
        self_check()
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.setup_probe:
        setup_probe(args)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

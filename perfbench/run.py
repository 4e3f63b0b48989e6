"""readscale benchmark: run the CLI as users do and report what it costs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's command(s) to completion, each in
a fresh child process, then starts the next iteration, until ``--seconds``
have passed. Inputs are made from ``--seed`` before timing starts.

``--trace 0`` times untraced iterations and reports the end-to-end metrics
of BENCHMARK.json: the median over the iterations (set-up: over several
set-ups), with sample count and quartiles on the lines before the result.
``--trace 1`` alternates untraced iterations with traced ones, where
``traced_cli.py`` wraps readscale's public functions, and reports the
per-layer metrics of BENCHMARK.json.

Every iteration's ``--out`` tree must be byte-identical to the first one,
traced or not; the first one is also checked against an independent
recomputation from the inputs (see ``workloads.py``). The last line of
standard output is the JSON result; a fuller record, with the run's metadata
and every sample, goes to ``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from stub import StubProvider
from tracer import Tracer, install, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5  # spread over the run, so they sample more than one speed regime
PROBE_REF_S = 0.085  # speed_probe() at the reference speed; calibrated times assume it
CHILD_TIMEOUT = 150.0  # seconds; a hung command is killed and counted as failed
LAUNCH = "import sys; from readscale.cli import main; sys.exit(main())"  # the console script


# printed beside the end-to-end metrics; raw times follow the VM's speed swings
DIAGNOSTIC_UNITS = {"wall_s": "s", "records_per_s": "1/s", "cpu_s": "s"}


@dataclass
class Iteration:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    ok: bool = True
    stdout: dict[str, str] = field(default_factory=dict)
    walls: dict[str, float] = field(default_factory=dict)
    spans: dict[str, list[dict]] = field(default_factory=dict)
    stub: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    cal_wall: float = 0.0


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_command(argv: list[str], env: dict, log_stem: Path) -> tuple[int, float, float, float, str]:
    """Spawn one command and wait for it: (exit code, wall s, cpu s, peak RSS MB, stdout).

    Wall time runs from spawn to exit. CPU time and peak RSS come from
    ``os.wait4``'s rusage, which covers this child alone.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before giving up
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = Path(f"{log_stem}.out").read_text(encoding="utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The CPU speed a process gets on a shared VM swings by up to 1.7x for
    tens of seconds at a time. The probe, run just before and just after
    each command, measures the speed that command ran at.
    """
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(400_000):
        d[i & 1023] = d.get(i & 1023, 0) + (i ^ 5)
    return time.perf_counter() - start


def run_iteration(case, out: Path, stub, traced: bool, env: dict, logs: Path, number: int) -> Iteration:
    case.before_iteration()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if stub is not None:
        stub.reset_counts()
    it = Iteration(traced=traced)
    probe = speed_probe()
    for label, cli_args in case.commands(out, stub.url if stub is not None else None):
        stem = logs / f"{number:03d}-{label}"
        spans_path = f"{stem}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), spans_path, f"{number}-{label}", "--"]
        else:
            argv = [sys.executable, "-c", LAUNCH]
        code, wall, cpu, rss, stdout = run_command(argv + cli_args, env, stem)
        probe_after = speed_probe()
        it.cal_wall += wall * PROBE_REF_S / ((probe + probe_after) / 2)
        probe = probe_after
        it.wall += wall
        it.cpu += cpu
        it.rss_mb = max(it.rss_mb, rss)
        it.walls[label] = wall
        it.stdout[label] = stdout
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                it.spans[label] = json.load(fh)["spans"]
        if code != 0:
            it.ok = False
            it.errors.append(f"{label} exited with {code}; see {stem}.err")
            break
    if stub is not None:
        it.stub = stub.counts()
    return it


# ---------------------------------------------------------------------------
# per-layer metrics from spans

CALL_COUNTS = (
    "ingest.parse_records", "corpus.group_by_field_year", "distfit.fit_lognormal",
    "distfit.test_lognormality", "swilk.shapiro_wilk", "rescale.rescale_group",
    "rescale.write_ccdf_tsv", "topz.top_share_report", "topz.top_membership", "cli.write_table",
)
SELF_TIMES = (
    "ingest.parse_records", "ingest.validate", "ingest.write_records",
    "corpus.group_by_field_year", "distfit.fit_lognormal", "distfit.test_lognormality",
    "swilk.shapiro_wilk", "rescale.rescale_group", "rescale.ccdf", "rescale.write_ccdf_tsv",
    "css.characteristic_scores", "css.classify", "topz.top_share_report",
    "topz.top_membership", "cli.write_table", "fetch.Cache.read_all", "fetch.Cache.append",
    "fetch.fetch_counts",
)


def layer_metrics(it: Iteration, out: Path) -> dict[str, float]:
    calls: Counter = Counter()
    errors: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, list[dict]] = defaultdict(list)
    startup = 0.0
    for label, spans in it.spans.items():
        for span, own in self_times(spans):
            name, duration = span["name"], span["end"] - span["start"]
            calls[name] += 1
            errors[name] += span["error"]
            self_s[name] += own
            incl_s[name] += duration
            attrs[name].append(span["attrs"])
            if name == "cli.main":
                startup += it.walls[label] - duration

    def total(name: str, key: str) -> int:
        return sum(a.get(key, 0) for a in attrs[name])

    m: dict[str, float] = {f"{name}.calls": calls[name] for name in CALL_COUNTS}
    m.update({f"{name}.self_s": self_s[name] for name in SELF_TIMES})
    parse_s = incl_s["ingest.parse_records"]
    m["ingest.rows_per_s"] = total("ingest.parse_records", "rows") / parse_s if parse_s else 0.0
    m["ingest.rows_rejected"] = (
        total("ingest.parse_records", "rejected") + total("ingest.validate", "rejected")
    )
    m["corpus.strata"] = max(
        (a.get("strata", 0) for a in attrs["corpus.group_by_field_year"]), default=0
    )
    m["distfit.tests_skipped"] = errors["distfit.test_lognormality"]
    m["rescale.ccdf_bytes"] = total("rescale.write_ccdf_tsv", "bytes")
    m["topz.rows_failed"] = errors["topz.top_share_report"]
    m["cli.out_bytes"] = tree_bytes(out)
    m["cli.glue_s"] = self_s["cli.main"]
    m["cli.startup_s"] = startup
    misses = it.stub.get("dois", 0)
    m["fetch.cache_hits"] = total("fetch.fetch_counts", "dois") - misses if calls["fetch.fetch_counts"] else 0
    m["fetch.cache_misses"] = misses
    m["fetch.requests"] = it.stub.get("requests", 0)
    m["fetch.retries"] = it.stub.get("retries", 0)
    m["fetch.limiter_wait_s"] = incl_s["fetch.RateLimiter.acquire"]
    return m


# ---------------------------------------------------------------------------
# the run


def summary(values: list[float]) -> dict:
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def build_inputs(args, inputs: Path, tracer: Tracer | None = None):
    """Build the workload's inputs from the seed: (case, seconds, digest)."""
    from workloads import PREPARE

    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    if tracer is not None:
        install(tracer, {"readscale.synth": ("generate_corpus",)})
    start = time.perf_counter()
    case = PREPARE[args.workload](args.seed, inputs)
    seconds = time.perf_counter() - start
    return case, seconds, tree_digest(inputs)


def synth_metrics(tracer: Tracer) -> dict[str, float]:
    pairs = [(s, own) for s, own in self_times(tracer.spans) if s["name"] == "synth.generate_corpus"]
    return {
        "synth.generate_corpus.self_s": sum(own for _, own in pairs),
        "synth.records": sum(s["attrs"].get("records", 0) for s, _ in pairs),
    }


def measure(args, case, out: Path, stub, env: dict, work: Path, setup: list[float], digest: str):
    """The closed loop: iterations until --seconds have passed, each checked.

    Untraced runs rebuild the inputs between iterations until ``setup``
    holds SETUP_REPEATS times; every rebuild must match ``digest``.
    Returns the iterations and any problem found.
    """
    iterations: list[Iteration] = []
    problems: list[str] = []
    reference = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        it = run_iteration(case, out, stub, traced, env, work / "logs", len(iterations))
        if it.ok:
            out_digest = tree_digest(out)
            if reference is None:
                reference = out_digest
                it.errors += case.check(out, it.stdout)
            elif out_digest != reference:
                it.errors.append("--out differs from the first iteration's")
            if traced:
                it.layers = layer_metrics(it, out)
        it.ok = it.ok and not it.errors
        iterations.append(it)
        for error in it.errors:
            print(f"iteration {len(iterations) - 1}: {error}", file=sys.stderr)
        if not args.trace and len(setup) < SETUP_REPEATS and len(iterations) % 3 == 1:
            _, seconds, again = build_inputs(args, work / "inputs_again")
            setup.append(seconds)
            if again != digest:
                problems.append("set-up is not deterministic: a rebuild of the inputs differs")
        enough = not args.trace or any(i.traced for i in iterations)
        if enough and time.perf_counter() - start >= args.seconds:
            return iterations, problems


def collect(args, case, iterations: list[Iteration], setup_times, synth) -> dict[str, dict]:
    ok = [i for i in iterations if i.ok]
    plain = [i for i in ok if not i.traced]
    stats = {
        "cal_wall_s": summary([i.cal_wall for i in plain]),
        "cal_records_per_s": summary([case.records / i.cal_wall for i in plain]),
        "peak_rss_mb": summary([i.rss_mb for i in plain]),
        "setup_s": summary(setup_times),
        "wall_s": summary([i.wall for i in plain]),
        "records_per_s": summary([case.records / i.wall for i in plain]),
        "cpu_s": summary([i.cpu for i in plain]),
    }
    if args.trace:
        traced = [i for i in ok if i.traced]
        for name in traced[0].layers if traced else ():
            stats[name] = summary([i.layers[name] for i in traced])
        for name, value in synth.items():
            stats[name] = summary([value])
        stats["trace.overhead_ratio"] = summary(
            [statistics.median(i.cal_wall for i in traced) / stats["cal_wall_s"]["median"]]
            if traced and plain else []
        )
    return stats


def metadata(args, case, out: Path) -> dict:
    import numpy
    import scipy

    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unavailable"
        except (OSError, subprocess.SubprocessError):
            sha = "unavailable"
    src = hashlib.sha256()
    for path in sorted((SRC / "readscale").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "input_records": case.records,
        "input_bytes": case.input_bytes,
        "out_sha256": tree_digest(out) if out.exists() else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and the stub, and cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(whys)}")
    if not (SRC / "readscale" / "cli.py").is_file():
        print(f"perfbench: no readscale sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import readscale

    if Path(readscale.__file__).resolve().parent != (SRC / "readscale").resolve():
        print(f"perfbench: imported readscale from {readscale.__file__}, not {SRC}", file=sys.stderr)
        return 2

    local = "127.0.0.1,localhost"  # the stub provider must never be reached through a proxy
    env = dict(os.environ, PYTHONPATH=str(SRC), NO_PROXY=local, no_proxy=local)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    (work / "logs").mkdir(parents=True)
    stub = None
    keep_logs = True  # the work directory is removed only when the run ends cleanly
    try:
        tracer = Tracer("setup") if args.trace else None
        case, seconds, digest = build_inputs(args, work / "inputs", tracer)
        setup_times = [seconds]
        if case.stub_responses is not None:
            stub = StubProvider(case.stub_responses)
        iterations, problems = measure(args, case, out, stub, env, work, setup_times, digest)
        stats = collect(args, case, iterations, setup_times, synth_metrics(tracer) if tracer else {})
        failed = sum(1 for i in iterations if not i.ok)
        correct = failed == 0 and not problems and stats["cal_wall_s"]["n"] > 0
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        meta = metadata(args, case, out)

        print(f"readscale benchmark: workload {args.workload}, seed {args.seed}, "
              f"{len(iterations)} iterations, {failed} failed, "
              f"error_rate {failed / len(iterations):.4f}")
        print(f"  why: {whys[args.workload]}")
        diagnostics = [] if args.trace else ["wall_s", "records_per_s", "cpu_s"]
        for name in [m["name"] for m in wanted] + diagnostics:
            s = stats.get(name, summary([]))
            print(f"  {name:34s} {s['median']:14.6g} {units.get(name, DIAGNOSTIC_UNITS.get(name)):6s} "
                  f"n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}")
        print("  meta: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)

        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record = {
            "meta": meta,
            "correct": correct,
            "attempted": len(iterations),
            "failed": failed,
            "error_rate": failed / len(iterations),
            "problems": problems,
            "errors": [e for i in iterations for e in i.errors],
            "metrics": stats,
            "iterations": [
                {"traced": i.traced, "ok": i.ok, "wall_s": i.wall, "cpu_s": i.cpu,
                 "cal_wall_s": i.cal_wall, "peak_rss_mb": i.rss_mb, "walls": i.walls}
                for i in iterations
            ],
        }
        result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"  results: {result_path.relative_to(ROOT)}")

        print(json.dumps({
            "correct": correct,
            "attempted": len(iterations),
            "failed": failed,
            "metrics": {
                m["name"]: {"value": stats.get(m["name"], summary([]))["median"], "unit": m["unit"]}
                for m in wanted
            },
        }))
        keep_logs = not correct
        return 0
    finally:
        if stub is not None:
            stub.close()
        if not keep_logs:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

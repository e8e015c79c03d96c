"""paymech benchmark: seeded workloads driven through the command line.

    python3 bench/run.py --workload synth-ladder --seed 1 --seconds 30 --trace 0

One client in one process runs a closed loop: each `paymech.cli.dispatch`
call is made only after the previous one returns.  A pass is one run of
the workload's call list (see `workloads.py`); passes repeat until
`--seconds` have elapsed.  Every answer of the first pass is checked
against an independent reference, and every later pass must print the
same bytes with the same exit code.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics (`setup_s`, `pass_s`, `peak_rss_mb`); the lines above
it report the per-command timings, Monte Carlo throughput and failure
ratio.  With `--trace 1`, untraced and traced passes alternate: the
JSON carries the per-layer metrics of the traced passes, and the report
gives the tracing overhead.  Spans are written to the work directory.

Known failures run once per invocation as probes, after the timed
passes; they are reported by kind and kept out of the JSON counts, so
that the timed passes hold no failing call.

Exit status 2 means the benchmark could not run: bad arguments, or no
paymech sources under `src/` next to this directory.
"""

import os

# one BLAS thread: set before numpy is first imported, here in the launcher
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
IMPORT_REPEATS = 9  # fresh interpreters timed for setup_s
BUILD_REPEATS = 5  # document set-ups timed for setup_s
MIN_PASSES = 2
COMMANDS = ("synth", "verify", "bound", "spe", "simulate", "implement")


def _import_package() -> None:
    """Import paymech from this checkout's sources, or exit with status 2."""
    sys.path.insert(0, SRC)
    try:
        import paymech.cli
    except ImportError as exc:
        print(f"error: cannot import paymech from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not os.path.abspath(paymech.__file__).startswith(SRC + os.sep):
        print(f"error: paymech was imported from {paymech.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _import_seconds() -> list[float]:
    """Time `import paymech.cli` (numpy included) in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import paymech.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(done.stdout))
    return samples


def _environment() -> str:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = "?"
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} blas={blas!r} "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} process_threads={threads}")


class Runner:
    """Runs passes of a plan and keeps every call's outcome."""

    def __init__(self, cli, plan):
        self.cli = cli
        self.plan = plan
        self.reference = None  # (code, stdout, crash) per call, from the first pass
        self.failures: list[tuple[int, str]] = []  # (call index in the pass, kind)
        self.attempted = 0
        self.probe_failures = 0

    def call(self, call):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.dispatch(call.argv, stdout=out, stderr=err, stdin=io.StringIO(""))
            crash = None
        except Exception as exc:  # a crash is an outcome to classify, not to stop on
            code, crash = None, f"uncaught {type(exc).__name__}"
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        if call.save and code == 0:
            with open(call.save, "w", encoding="utf-8") as fh:
                fh.write(text)
        return elapsed, code, text, crash, err.getvalue()

    def run_pass(self):
        """One pass; returns (seconds, seconds per command)."""
        per_command = dict.fromkeys(COMMANDS, 0.0)
        outcomes = []
        start = time.perf_counter()
        for call in self.plan.calls:
            elapsed, code, text, crash, err = self.call(call)
            per_command[call.command] += elapsed
            outcomes.append((code, text, crash, err))
        total = time.perf_counter() - start
        if self.reference is None:
            self.reference = outcomes
        else:
            for index, (got, ref) in enumerate(zip(outcomes, self.reference)):
                if got[:3] != ref[:3]:
                    self.failures.append((index, "wrong answer: output differs from the first pass"))
        self.attempted += len(self.plan.calls)
        return total, per_command

    def check_reference(self) -> None:
        """Classify and check every call of the first pass."""
        for index, (call, (code, text, crash, err)) in enumerate(zip(self.plan.calls, self.reference)):
            kind = _classify(call, code, text, crash, err)
            if kind:
                self.failures.append((index, kind))

    def run_probes(self) -> list[str]:
        lines = []
        for probe in self.plan.probes:
            _, code, text, crash, err = self.call(probe.call)
            kind = _classify(probe.call, code, text, crash, err) or "passes: answer checked"
            lines.append(f"known-failure probe {probe.call.label!r}: {kind} "
                         f"(known failure: {probe.known})")
            self.probe_failures += not kind.startswith("passes")
        return lines


def _classify(call, code, text, crash, err) -> str | None:
    """None for a correct answer, else the kind of failure."""
    if crash:
        return crash
    if code == 3:
        return f"exit 3: {err.strip()}"
    if code == 2:
        return f"exit 2 on a valid document: {err.strip()}"
    problem = call.check(code, text)
    return f"wrong answer: {problem}" if problem else None


def _percentile_line(samples) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            text += f", p{p:g} {ordered[rank - 1]:.6g}"
            break
    else:
        text += ", no percentile with ten samples beyond it"
    return f"{text}, range {ordered[0]:.6g}..{ordered[-1]:.6g}, n={n}"


def _measure(runner, seconds, tracer=None, names=()):
    """Passes until `seconds` have elapsed.

    With a tracer every other pass is traced, and each traced pass gives
    (seconds, layer metrics `names`).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(untraced) < MIN_PASSES or (tracer and len(traced) < MIN_PASSES)):
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
            first = tracer.mark()
            total, _ = runner.run_pass()
            tracer.uninstall()
            traced.append((total, tracer.metrics(first, names)))
        else:
            untraced.append(runner.run_pass())
    return untraced, traced


def _layer_report(say, spec, tracer, untraced, traced, setup_layers, workdir):
    """Report lines and JSON metrics of a traced run."""
    pass_times = [total for total, _ in untraced]
    traced_times = [total for total, _ in traced]
    overhead = statistics.median(traced_times) - statistics.median(pass_times)
    say(f"tracing overhead {overhead:.6g} s per pass (traced {_percentile_line(traced_times)}; "
        f"untraced {_percentile_line(pass_times)})")
    if tracer.missing:
        say(f"# absent (wrapped function no longer exists): {', '.join(tracer.missing)}")
    layers = {}
    for phases in ([m for _, m in traced], setup_layers):
        for name in phases[0]:
            layers[name] = statistics.median(m[name] for m in phases)
    spans_path = os.path.join(workdir, "spans.tsv")
    tracer.write(spans_path)
    say(f"# {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for value, name in sorted(((v, k) for k, v in layers.items() if units[k] == "s"), reverse=True):
        say(f"layer {name} = {value:.6g} s")
    for name, value in layers.items():
        if units[name] != "s":
            say(f"layer {name} = {value:.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in layers.items()}


def _end_to_end_report(say, plan, runner, untraced, setup_times, import_times, peak_rss_mb):
    """Report lines and JSON metrics of an untraced run."""
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    pass_times = [total for total, _ in untraced]
    say(f"metric setup_s = {setup_s:.6g} s (median import {[round(t, 4) for t in import_times]} "
        f"+ median document set-up {[round(t, 4) for t in setup_times]})")
    say(f"metric pass_s = {statistics.median(pass_times):.6g} s ({_percentile_line(pass_times)})")
    for command in COMMANDS:
        if any(call.command == command for call in plan.calls):
            samples = [per[command] for _, per in untraced]
            say(f"metric {command}_s = {statistics.median(samples):.6g} s per pass "
                f"({_percentile_line(samples)})")
    trials = sum(call.trials for call in plan.calls)
    if trials:
        rates = [trials / per["simulate"] for _, per in untraced]
        say(f"metric mc_trials_per_s = {statistics.median(rates):.6g} 1/s "
            f"({trials} episodes per pass; {_percentile_line(rates)})")
    # per pass: a call counts once, whether it failed its check or changed its output later
    failed_calls = len({index for index, _ in runner.failures})
    calls = len(plan.calls) + len(plan.probes)
    say(f"metric failed_ratio = {(failed_calls + runner.probe_failures) / calls:.6g} ratio "
        f"({failed_calls} of {len(plan.calls)} calls of a pass, "
        f"{runner.probe_failures} of {len(plan.probes)} probes)")
    say(f"metric peak_rss_mb = {peak_rss_mb:.6g} MB")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_package()
    import paymech.cli

    sys.path.insert(0, HERE)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workdir = os.path.join(HERE, "_work", args.workload + ("-tiny" if args.tiny else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    tracer = spans.Tracer() if args.trace else None
    setup_times, setup_layers = [], []
    for _ in range(BUILD_REPEATS):
        if tracer:
            tracer.install()
            first = tracer.mark()
        start = time.perf_counter()
        plan = workloads.build(args.workload, args.seed, workdir, paymech.cli.dispatch, args.tiny)
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
            setup_layers.append(tracer.metrics(first, spans.SETUP_METRICS))

    runner = Runner(paymech.cli, plan)
    runner.run_pass()  # warm-up; its outputs are the ones checked
    layer_names = [m["name"] for m in spec["per_layer"] if m["name"] not in spans.SETUP_METRICS]
    untraced, traced = _measure(runner, args.seconds, tracer, layer_names)
    # before the probes and the reference checks, which are not the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = _environment()  # after the passes, so that any BLAS threads would show
    probe_lines = runner.run_probes()
    runner.check_reference()

    say = lambda line: print(line, file=out)  # noqa: E731
    say(f"# paymech benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}{' tiny' if args.tiny else ''}")
    say(f"# {workloads.WORKLOADS[args.workload][1]}")
    say(f"# closed loop, 1 client, 1 process; {len(plan.calls)} calls per pass")
    say(f"# env {env}")
    for name, why in plan.instances:
        say(f"# instance {name}: {why}")
    for note in plan.notes:
        say(f"# {note}")
    for index, kind in runner.failures:
        say(f"FAILED {plan.calls[index].label}: {kind}")
    for line in probe_lines:
        say(line)
    if tracer:
        metrics = _layer_report(say, spec, tracer, untraced, traced, setup_layers, workdir)
    else:
        metrics = _end_to_end_report(say, plan, runner, untraced, setup_times, _import_seconds(),
                                     peak_rss_mb)
    failed = len(runner.failures)
    say(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                    "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

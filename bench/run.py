"""marsched benchmark: one workload, one seed, one measured window.

    python3 bench/run.py --workload easy_overload --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Prints each metric by name and unit, then,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` measures the
end-to-end metrics with nothing patched; ``--trace 1`` runs every round
twice, untraced and then traced, and reports the per-layer metrics and the
tracing overhead. Workloads, metrics and their reasons are described in
README.md beside this file.
"""

import os
import sys
import time

T0 = time.perf_counter()       # process start, as far as this script sees it

# one BLAS thread, before numpy is imported anywhere
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("MARSCHED_CONFIG", None)     # every op passes --config

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile

from checks import digest_problems, parse_result_line, result_line, self_test

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")    # inputs and op outputs
OUT_ROOT = os.path.join(ROOT, ".bench_out")      # spans of traced runs
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

DEFAULT_SEED = 1        # the seed the reference digests were recorded at
SETUP_PROBES = 4        # extra set-ups, each in a fresh process


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time and exit")
    p.add_argument("--record-digests", action="store_true",
                   help="run every simulate op of the workload's bank at "
                        "the default seed once and record its digests")
    return p.parse_args(argv)


def median_of(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    value = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return value, sum(v > value for v in ordered)


def machine_facts():
    import numpy
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "marsched")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fp:
                    lines += sum(1 for _ in fp)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "src_lines": lines,
    }


def setup(spec, seed, work):
    """Imports, trace generation, SWF and INI writes: everything before the
    first op. Returns the bank of traces and the config path."""
    import workloads
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    return workloads.make_inputs(spec, seed, inputs), \
        workloads.write_config(inputs)


def probe_setup_times(args):
    """Set-up time of fresh processes, each timed from its own start."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs rounds of one workload and keeps every op's result."""

    def __init__(self, spec, seed, bank, config, work, reference):
        self.spec, self.seed, self.bank = spec, seed, bank
        self.config, self.work = config, work
        self.reference = reference        # digests, or None to skip the check
        self.results = []
        self.problems = []
        self.seen = {}                    # (index, op) -> fingerprint
        self._dirs = 0

    def new_dir(self):
        self._dirs += 1
        path = os.path.join(self.work, f"op{self._dirs}")
        os.makedirs(path)
        return path

    def run_round(self, index):
        import workloads
        index %= len(self.bank)
        op_dirs_from = self._dirs
        ops = workloads.round_ops(self.spec, self.config, self.bank[index],
                                  self.seed, index, self.new_dir)
        for res in ops:
            self._check(index, res)
        for n in range(op_dirs_from + 1, self._dirs + 1):
            shutil.rmtree(os.path.join(self.work, f"op{n}"))
        self.results.extend(ops)
        return ops

    def _check(self, index, res):
        key = (index, res.name)
        if key in self.seen and self.seen[key] != res.fingerprint:
            res.problems.append("differs from the same op on the same input")
        self.seen.setdefault(key, res.fingerprint)
        if self.reference is not None and res.name.startswith("simulate"):
            ref_key = f"{self.spec.name}/{index}/{res.name.split()[1]}"
            if res.digests:
                res.problems += digest_problems(
                    res.digests, self.reference.get(ref_key), ref_key)
        for p in res.problems:
            self.problems.append(f"{res.name} on trace {index}: {p}")

    @property
    def failed(self):
        return sum(1 for r in self.results if r.problems)


def run_window(runner, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed; at least one. With a
    tracer, each round runs untraced and then traced on the same input."""
    start = time.perf_counter()
    rounds, walls = 0, [0.0, 0.0]
    while rounds == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                runner.run_round(rounds)
            finally:
                walls[traced] += time.perf_counter() - t0
                if traced:
                    tracer.restore()
        rounds += 1
    return rounds, walls


def end_to_end(runner, setup_times):
    """The untraced metrics, from every op of the run."""
    return {
        "setup_s": (median_of(setup_times), "s"),
        "jobs_per_s": (sum(r.jobs for r in runner.results)
                       / max(sum(r.wall_s for r in runner.results), 1e-12),
                       "jobs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def report_extras(runner):
    """Figures printed for reading but not gated by BENCHMARK.json."""
    extras = {}
    bslds = [r.bsld for r in runner.results if r.bsld is not None]
    if bslds:
        extras["bsld_mean"] = (statistics.mean(bslds), "1")
    epochs = [e for r in runner.results for e in r.epoch_s]
    if epochs:
        extras["epoch_s_p50"] = (median_of(epochs), "s")
        p90, beyond = percentile(epochs, 0.9)
        if beyond >= 10:
            extras["epoch_s_p90"] = (p90, "s")
        extras["epoch_samples"] = (len(epochs), "count")
    attempted = len(runner.results)
    extras["fail_ratio"] = (runner.failed / max(attempted, 1), "1")
    return extras


def record_digests(spec):
    """Rewrite the workload's reference digests: every simulate op over the
    whole bank at the default seed."""
    with open(DIGESTS) as fp:
        digests = json.load(fp)
    digests = {k: v for k, v in digests.items()
               if not k.startswith(spec.name + "/")}
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        bank, config = setup(spec, DEFAULT_SEED, work)
        runner = Runner(spec, DEFAULT_SEED, bank, config, work, None)
        for index in range(len(bank)):
            for res in runner.run_round(index):
                digests[f"{spec.name}/{index}/{res.name.split()[1]}"] = \
                    res.digests
    finally:
        shutil.rmtree(work)
    if runner.problems:
        raise SystemExit("\n".join(runner.problems))
    with open(DIGESTS, "w") as fp:
        json.dump(digests, fp, indent=0, sort_keys=True)
        fp.write("\n")
    print(f"{DIGESTS} now holds {len(digests)} digest pairs")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "marsched", "cli.py")):
        print(f"error: no marsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.record_digests:
        record_digests(spec)
        return 0

    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        bank, config = setup(spec, args.seed, work)
        own_setup = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        setup_times = [own_setup]
        if not args.trace:
            setup_times += probe_setup_times(args)

        problems = [f"self-test: {f}" for f in self_test(work)]
        reference = None
        if args.seed == DEFAULT_SEED:
            with open(DIGESTS) as fp:
                reference = json.load(fp)
        runner = Runner(spec, args.seed, bank, config, work, reference)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        rounds, walls = run_window(runner, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += runner.problems
    facts = machine_facts()
    print(f"workload {spec.name}: {spec.why}")
    print(f"seed {args.seed}, {rounds} rounds over a bank of {len(bank)} "
          f"traces, {len(runner.results)} ops, tracing "
          f"{'on' if tracer else 'off'}")
    print("machine " + json.dumps(facts, sort_keys=True))
    if reference is None:
        print(f"digest check skipped: seed {args.seed} is not the default "
              f"seed {DEFAULT_SEED}; the invariant checks still ran")
    else:
        print("digest check ran against bench/digests.json")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    if tracer:
        metrics = tracer.layer_metrics(rounds)
        metrics["bench.trace_overhead_s"] = ((walls[1] - walls[0]) / rounds,
                                             "s")
        metrics["bench.trace_overhead_share"] = (
            (walls[1] - walls[0]) / max(walls[0], 1e-12), "1")
        os.makedirs(OUT_ROOT, exist_ok=True)
        spans_path = os.path.join(
            OUT_ROOT, f"spans-{spec.name}-seed{args.seed}.json")
        with open(spans_path, "w") as fp:
            json.dump({"machine": facts, "spans": tracer.spans}, fp)
        print(f"{len(tracer.spans)} spans written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(runner, setup_times)
        for name, (value, unit) in report_extras(runner).items():
            print(f"  {name:<28} {value:>14.6g} {unit}   (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  attempted {len(runner.results)} ops, failed {runner.failed}")

    line = result_line(not problems, len(runner.results), runner.failed,
                       metrics)
    parse_result_line(line)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

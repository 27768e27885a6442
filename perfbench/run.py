"""chemoctrl benchmark: one workload per process, CLI runs in process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare-3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run repeats the workload until ``--seconds`` are used up and checks the
outputs of every repeat.  With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it alternates untraced and
traced repeats and reports the per-layer metrics of the traced ones.  The last
line of standard output is the result object; the lines before it give the
machine facts, the spread of each timing and the self-time ranking.  Scratch
files, references and spans go to ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_PROBES = 5
M_MMAP_THRESHOLD = -3  # mallopt parameter of glibc
MMAP_THRESHOLD = 128 * 1024  # glibc's initial value
PROBE_TIMEOUT_S = 60
CREATED_AT = re.compile(rb'"created_at": "[^"]*"')

# One cold set-up as a user pays it: import, then load_config, which builds
# the grid, the initial fields and the control.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chemoctrl
from chemoctrl.cli import load_config
load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def pin_environment():
    """Fix thread pools and allocation policy; call before numpy is imported.

    BLAS/OpenMP pools are capped at the usable cores.  Two allocator
    behaviours made the peak RSS of identical runs differ by up to 15%, so
    both are pinned: glibc raises its mmap threshold as large blocks are
    freed, which leaves a varying amount of freed memory resident (a fixed
    threshold makes the peak track live memory), and numpy's hugepage madvise
    puts large arrays on 2 MB pages depending on address alignment.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
        threads[var] = int(os.environ[var])
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        fixed = ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    except (OSError, AttributeError):  # not glibc
        fixed = False
    return nproc, {"blas_threads": threads, "mmap_threshold_fixed": fixed}


def machine_facts(nproc, pinned):
    import numpy
    import scipy

    caches = {}  # glibc's sysconf reports 0 on some VMs; sysfs does not
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc, "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}", **pinned,
    }


def source_digest():
    """Digest of the program and the benchmark; keys the stored references."""
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("chemoctrl/*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def artifact_digests(out_dir):
    """sha256 of every output file; the manifest's created_at is blanked."""
    digests = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = CREATED_AT.sub(b'"created_at": ""', data)
            digests[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    return digests


class Reference:
    """First outputs and exact counts seen for one (program, workload, seed)."""

    def __init__(self, path):
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key, value):
        """Store ``value`` the first time; later, report whether it matches."""
        if key not in self.data:
            self.data[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, sort_keys=True, indent=1))
            os.replace(tmp, self.path)
            return True
        return self.data[key] == value


def finite_or_none(value):
    """JSON has no NaN; a value that could not be measured is null."""
    return value if math.isfinite(value) else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_once(workload, cli_main, cfg_path, out_dir):
    """One run of the workload; returns (wall seconds, failed checks)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    problems = []
    t0 = time.perf_counter()
    try:
        for argv in workload.argvs(str(cfg_path), str(out_dir)):
            code = cli_main(argv)
            if code != 0:
                problems.append(f"exit code {code} from {argv[0]}")
                break
    except Exception:  # a crash is a failed run, reported with its traceback
        traceback.print_exc()
        problems.append("exception in the program")
    elapsed = time.perf_counter() - t0
    if not problems:
        try:
            problems += workload.problems(str(out_dir))
        except (OSError, KeyError, ValueError, IndexError) as err:
            problems.append(f"unreadable output: {err!r}")
    return elapsed, problems


def setup_seconds(cfg_path):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_workload(args, bench):
    nproc, pinned = pin_environment()
    sys.path.insert(0, str(SRC))
    import chemoctrl
    import chemoctrl.cli

    if Path(chemoctrl.__file__).resolve().parent != SRC / "chemoctrl":
        return fail(f"imported chemoctrl from {chemoctrl.__file__}, not from {SRC}")
    import spans
    from workloads import WORKLOADS, trace_rows

    workload = WORKLOADS[args.workload]
    facts = machine_facts(nproc, pinned)
    print("machine " + json.dumps(facts, sort_keys=True))

    run_dir = WORK / "runs" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(workload.config(args.seed), indent=1))
    out_dir = run_dir / "out"
    ref = Reference(WORK / "ref" / source_digest() / f"{workload.name}-seed{args.seed}.json")

    tracer = spans.Tracer()
    times = {False: [], True: []}
    layers = []
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        tracer.run_id = attempted
        if traced:
            with tracer.installed():
                elapsed, found = run_once(workload, chemoctrl.cli.main, cfg_path, out_dir)
        else:
            elapsed, found = run_once(workload, chemoctrl.cli.main, cfg_path, out_dir)
        if not found and not ref.check("artifacts", artifact_digests(out_dir)):
            found.append("artifacts differ from the first run of this seed")
        if traced and not found:
            layers.append(spans.layer_metrics(tracer.spans, attempted,
                                              trace_rows(str(out_dir))))
            ranking = spans.self_time_by_name(tracer.spans, attempted)
        attempted += 1
        times[traced].append(elapsed)
        if found:
            failed += 1
            problems.append(f"run {attempted}: " + "; ".join(found))
        used = time.perf_counter() - start
        typical = statistics.median(times[False] + times[True])
        if used + typical > args.seconds and (not args.trace or times[True]):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in problems:
        print(f"FAILED {line}")
    correct = failed == 0
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "machine": facts, "attempted": attempted, "failed": failed,
               "problems": problems, "run_s_samples": times[False],
               "traced_run_s_samples": times[True]}

    if args.trace:
        metrics = {}
        if layers:
            counts = [{key: layer[key] for key in spans.EXACT_COUNTS} for layer in layers]
            if any(c != counts[0] for c in counts) or not ref.check("counts", counts[0]):
                print(f"FAILED exact counts differ across runs of seed {args.seed}: "
                      f"{counts} vs stored {ref.data.get('counts')}")
                correct = False
            metrics = {key: statistics.median(layer[key] for layer in layers)
                       for key in layers[0]}
            traced_s = statistics.median(times[True])
            untraced_s = statistics.median(times[False])
            metrics["run_s.traced"] = traced_s
            metrics["trace.overhead_s"] = traced_s - untraced_s
            summary["self_time_ranking"] = ranking
            print("self time of the last traced run, largest first:")
            for name, seconds in ranking[:8]:
                print(f"  {name:40s} {seconds:10.4f} s")
            tracer.write_csv(run_dir / "spans.csv")
        else:
            correct = False
        wanted = bench["per_layer"]
    else:
        setup = setup_seconds(cfg_path)
        best_j = workload.objective(str(cfg_path), str(out_dir)) if correct \
            else float("nan")
        summary["setup_s_samples"] = setup
        metrics = {"run_s": statistics.median(times[False]),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb, "best_J": best_j}
        for name, samples in (("run_s", times[False]), ("setup_s", setup)):
            q1, q3 = quartiles(samples)
            print(f"{name}: median {statistics.median(samples):.4f} s, quartiles "
                  f"{q1:.4f} .. {q3:.4f} s, n = {len(samples)}")
        wanted = bench["end_to_end"]

    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print(f"FAILED metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
        correct, metrics = False, {k: v for k, v in metrics.items() if k in names}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": finite_or_none(metrics[m["name"]]),
                                      "unit": m["unit"]}
                          for m in wanted if m["name"] in metrics}}
    summary["result"] = result
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, default=float))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, bench):
    """Each workload in its own process, then one table of every metric."""
    status = 0
    rows = []
    for workload in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload['name']}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append(f"{workload['name']:12s} fail_frac {result['failed']}/"
                    f"{result['attempted']}")
        for name, metric in result["metrics"].items():
            rows.append(f"{workload['name']:12s} {name:40s} {metric['value']:.6g} "
                        f"{metric['unit']}")
        status = status or (0 if result["correct"] else 1)
    print("\n".join(rows))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chemoctrl" / "__init__.py").is_file():
        return fail(f"no chemoctrl sources under {SRC}")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        return fail(f"missing {bench_path}")
    bench = json.loads(bench_path.read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())

"""qgrad13 benchmark: four workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload solve-riemann --seed 1 --seconds 20 --trace 0

Workloads: solve-riemann, scan-regions, verify-states, closure-quadrature
(see workloads.py for what each runs and why).  The package is imported from
`src/` of the same checkout; the program receives only inputs generated from
`--seed`.  Each workload runs in this one process with at most nproc threads,
and every operation's outputs are checked after it, outside the timed region.

--trace 0 (timed run, tracing off) reports
  ops_per_s     operations per second over a fixed mix of one group of each
                stratum (statistics, or scan kind and statistics), from
                per-stratum means, after one untimed warm-up group;
  setup_s       median over fresh interpreters of the wall time from start
                through `import qgrad13` and building the first inputs;
  peak_rss_mib  peak resident memory of this process.
Both times are in reference seconds (probe.py): each stretch of measured work
is scaled by how fast a fixed kernel ran just before and after it, which
largely cancels the host's slow phases.  The wall figures are kept in the
result file.  Failed or rejected operations are the result's `failed`, beside
`attempted`.

--trace 1 runs a fixed amount of work from the seed three times: with spans
recorded around qgrad13's public entry points (tracing.py), untraced, and
traced again; scan-regions runs it once more untraced on one thread.  It reports
the per-layer metrics of layers.py from the second (warm) traced pass, checks
that both traced passes give equal counters, and writes the spans to
.bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with the environment, goes to
.bench_out/result-<workload>-seed<n>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
#: timed work between two reference-clock bursts
SEGMENT_S = 0.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("solve-riemann", "scan-regions", "verify-states",
                  "closure-quadrature")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def steal_seconds() -> Optional[float]:
    """Cumulative steal time of all CPUs from /proc/stat, where available."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> Dict[str, object]:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"nproc": nproc(), "cpu_model": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


# ---------------------------------------------------------------------------
# passes

class PassResult:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0
        self.wall_s = 0.0
        #: stratum -> one [completed ops, wall s, reference s] row per group
        self.strata: Dict[str, List[list]] = defaultdict(list)
        self.infos: List[dict] = []

    def ops_per_s(self, reference: bool = False) -> float:
        """Completed ops over one mean group of each stratum, per wall or
        reference second.

        Means, not medians: per-op costs are multimodal (the polylog branch
        depends on the drawn fugacity), and a median then jumps between modes
        with the share each mode happens to get.
        """
        col = 2 if reference else 1
        ops = sum(statistics.fmean(g[0] for g in gs) for gs in self.strata.values())
        secs = sum(statistics.fmean(g[col] for g in gs) for gs in self.strata.values())
        return ops / secs


def run_pass(name: str, seed: int, workdir: str, threads: int, *,
             n_groups: Optional[int] = None, seconds: Optional[float] = None,
             tracer=None, clock=None) -> PassResult:
    """Run groups until `n_groups` are done or `seconds` of timed work passed.
    With a reference `clock`, groups are also timed in reference seconds, a
    segment of at least SEGMENT_S of work at a time."""
    from workloads import WORKLOADS
    generate, _, n_strata = WORKLOADS[name]
    groups = itertools.islice(generate(seed, workdir, threads), n_groups)
    res = PassResult()
    start = time.perf_counter()
    segment: List[list] = []

    def close_segment() -> None:
        scale = clock.scale(sum(row[1] for row in segment))
        for row in segment:
            row[2] = row[1] * scale
        segment.clear()

    for i, group in enumerate(groups):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = group.run()
        except Exception as exc:  # counted as failed ops, never dropped
            traceback.print_exc(file=sys.stderr)
            out = exc
        dt = time.perf_counter() - t0
        if isinstance(out, Exception):
            bad, info = group.ops, {"error": repr(out)}
        else:
            bad, info = group.check(out)
        if "error" in info:
            print(f"op group {i} ({group.stratum}) failed: {info['error']}",
                  file=sys.stderr)
        res.attempted += group.ops
        res.failed += bad
        res.timed_s += dt
        row = [group.ops - bad, dt, dt]
        res.strata[group.stratum].append(row)
        res.infos.append(info)
        segment.append(row)
        if clock is not None and sum(r[1] for r in segment) >= SEGMENT_S:
            close_segment()
        # stop only once every stratum has a group
        if seconds is not None and res.timed_s >= seconds \
                and len(res.strata) == n_strata:
            break
    if clock is not None and segment:
        close_segment()
    res.wall_s = time.perf_counter() - start
    return res


def digests_checked(passes: List[PassResult]) -> Optional[str]:
    """How many scans were checked against committed class-code digests."""
    flags = [i["digest_checked"] for p in passes for i in p.infos
             if "digest_checked" in i]
    return f"{sum(flags)} of {len(flags)} scans" if flags else None


def setup_probe(name: str, seed: int) -> int:
    """Fresh-interpreter body of one setup_s sample: import, build, report."""
    from workloads import WORKLOADS
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        next(WORKLOADS[name][0](seed, workdir, nproc()))
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Wall setup times, and the same in reference seconds: each scaled by the
    reference clock."""
    clock = probe.ReferenceClock()
    wall, ref = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        wall.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        ref.append(wall[-1] * clock.scale(wall[-1]))
    return wall, ref


# ---------------------------------------------------------------------------
# the two modes

def timed_run(name: str, seed: int, seconds: float, workdir: str) -> dict:
    setup_wall, setup = measure_setup(name, seed)
    steal0 = steal_seconds()
    # warm-up: the pass's first group once more, checked but not timed
    warm = run_pass(name, seed, workdir, nproc(), n_groups=1)
    clock = probe.ReferenceClock()
    res = run_pass(name, seed, workdir, nproc(), seconds=seconds, clock=clock)
    steal1 = steal_seconds()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = res.failed + warm.failed
    metrics = {
        "ops_per_s": {"value": res.ops_per_s(reference=True), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": peak, "unit": "MiB"},
    }
    detail = {"wall_ops_per_s": res.ops_per_s(),
              "setup_wall_s": setup_wall, "setup_samples_s": setup,
              "slowdown": clock.slowdown(), "bursts": len(clock.bursts),
              "timed_s": res.timed_s,
              "wall_s": res.wall_s, "ops_failed": failed,
              "group_s": {k: [g[1] for g in v] for k, v in res.strata.items()},
              "digests_checked": digests_checked([warm, res]),
              "steal_s": None if steal0 is None else steal1 - steal0}
    return {"correct": failed == 0, "attempted": res.attempted + warm.attempted,
            "failed": failed, "metrics": metrics, "detail": detail}


def traced_run(name: str, seed: int, workdir: str, spans_path: Path) -> dict:
    import layers
    import tracing
    from workloads import WORKLOADS
    n_groups = WORKLOADS[name][1]
    threads = nproc()
    steal0 = steal_seconds()

    def traced_pass():
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            return tracer, run_pass(name, seed, workdir, threads,
                                    n_groups=n_groups, tracer=tracer)
        finally:
            uninstall()

    # the first traced pass also warms the process up; the untraced pass and
    # the second traced pass, both warm, give the overhead
    first = traced_pass()
    plain = run_pass(name, seed, workdir, threads, n_groups=n_groups)
    traced = [first, traced_pass()]
    single = run_pass(name, seed, workdir, 1, n_groups=n_groups) \
        if name == "scan-regions" else None
    steal1 = steal_seconds()

    states = n_groups if name in ("verify-states", "closure-quadrature") else 0
    per_pass = [layers.layer_metrics(t.spans, r.infos, states, threads)
                for t, r in traced]
    counters = [{k: m[k][0] for k in layers.COUNTERS} | {"ops_failed": r.failed}
                for m, (_, r) in zip(per_pass, traced)]
    m = per_pass[1]
    tracer, res = traced[1]
    m["analysis.thread_scaling"] = (
        single.wall_s / plain.wall_s if single is not None else 0.0, "ratio")
    m["trace.wall_s"] = (res.wall_s, "s")
    m["trace.overhead_s"] = (res.wall_s - plain.wall_s, "s")
    tracing.dump(tracer.spans, str(spans_path))

    passes = [plain, *(r for _, r in traced)] + ([single] if single else [])
    failed = sum(p.failed for p in passes)
    detail = {
        "counters": counters[0], "counters_match": counters[0] == counters[1],
        "counters_second_pass": counters[1],
        "plain_wall_s": plain.wall_s, "single_thread_wall_s":
            single.wall_s if single is not None else None,
        "latency_ms": layers.latency_table(tracer.spans),
        "hand_figures": layers.hand_figures(name, tracer.spans, m),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digests_checked": digests_checked(passes),
        "steal_s": None if steal0 is None else steal1 - steal0,
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return {"correct": failed == 0 and detail["counters_match"],
            "attempted": sum(p.attempted for p in passes), "failed": failed,
            "metrics": metrics, "detail": detail}


def _print_report(name: str, seed: int, result: dict, env: dict) -> None:
    print(f"workload={name} seed={seed} correct={result['correct']} "
          f"attempted={result['attempted']} ops_failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']!r} {m['unit']}")
    detail = result["detail"]
    if "slowdown" in detail:
        print(f"  wall ops_per_s = {detail['wall_ops_per_s']!r} 1/s, "
              f"host slowdown {detail['slowdown']:.4f} by the reference clock")
    if "hand_figures" in detail:
        if not detail["counters_match"]:
            print(f"  counters differ between traced passes: "
                  f"{detail['counters']} vs {detail['counters_second_pass']}")
        for row in detail["hand_figures"]:
            flag = "agrees" if row["agrees"] else "DISAGREES"
            print(f"  roadmap {row['figure']}: {row['roadmap']} vs traced "
                  f"{row['traced']:.4g} ({flag})")
    for span, pct in detail.get("latency_ms", {}).items():
        tail = "" if pct["tail_pct"] in (None, 50.0) else \
            f", p{pct['tail_pct']:g} {pct['tail']:.4g} ms"
        print(f"  latency {span}: p50 {pct['p50']:.4g} ms{tail}, "
              f"n={pct['samples']}")
    if detail["digests_checked"] is not None:
        print(f"  class codes checked against committed digests: "
              f"{detail['digests_checked']}")
    print(f"  steal_s = {detail['steal_s']!r}")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qgrad13" / "__init__.py").is_file():
        print(f"qgrad13 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, workdir,
                                OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, **result}, fh, indent=2)
        fh.write("\n")
    _print_report(args.workload, args.seed, result, env)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

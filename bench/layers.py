"""Per-layer metrics derived from the spans of one traced pass.

Which end-to-end metric each layer should move, and on which workload:

* polylog - `ops_per_s` on solve-riemann and verify-states, not scan-regions.
* state - fit counts move solve-riemann; `ansatz_moments` moves `ops_per_s`
  and `peak_rss_mib` on closure-quadrature only.
* matrices - verify-states; scan-regions builds only a few affine-basis
  assemblies per scan.
* spectral - scan-regions and verify-states, not solve-riemann.
* analysis - `random_moment_state` moves verify-states; the scan, CSV and
  thread figures move scan-regions.
* solver1d - solve-riemann.
* cli - solve-riemann and scan-regions.

Every metric is reported on every workload; a layer a workload does not reach
reads 0.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from tracing import (ANCESTOR_NAMES, ANSATZ, ASSEMBLE, ASSEMBLE_REG, ATTRS, CLASSIFY,
                   CLI_MAIN, DIAG, EIGVALS, END, FIT, NAME, PARENT, POLYLOG,
                   RANDOM_STATE, REGION_SCAN, RUN, START, WRITE_REGION, children,
                   self_time, tail_percentile)

BRANCHES = ("series", "fermi", "robinson", "classical")
KINDS = ("Grad13", "TrivialR13", "FinalR13")
SCAN_NAMES = ("region1d", "region3d", "region-reg")

#: span names whose per-call latency percentiles enter the per-layer metrics
PERCENTILE_LAYERS = {"polylog": POLYLOG,
                     "matrices.assemble_A_regularized": ASSEMBLE_REG,
                     "spectral.diagonalizability_test": DIAG,
                     "analysis.random_moment_state": RANDOM_STATE}

#: counters that two traced passes on one seed must reproduce exactly
COUNTERS = ("polylog.calls", *(f"polylog.points.{b}" for b in BRANCHES),
            "polylog.calls_per_step", "solver1d.steps",
            "solver1d.newton_fallbacks", "spectral.classify_batch.matrices",
            "spectral.n_slow")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _enclosing(spans: List[list]) -> List[Dict[str, Optional[int]]]:
    """For every span, its nearest enclosing span of each name in ANCESTOR_NAMES."""
    out: List[Dict[str, Optional[int]]] = []
    for s in spans:
        p = s[PARENT]
        if p is None:
            out.append({})
            continue
        up = dict(out[p])
        up[spans[p][NAME]] = p
        out.append({k: v for k, v in up.items() if k in ANCESTOR_NAMES})
    return out


def layer_metrics(spans: List[list], infos: List[dict], states: int,
                  threads: int) -> Dict[str, Tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric of one traced pass.

    `infos` are the output-check records of the pass, `states` the number of
    operations that are one moment state each (0 on the other workloads).
    """
    kids = children(spans)
    up = _enclosing(spans)
    dur = [s[END] - s[START] for s in spans]
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def busy(idx) -> float:
        return float(sum(dur[i] for i in idx))

    m: Dict[str, Tuple[float, str]] = {}

    # polylog
    poly = by_name[POLYLOG]
    points = {b: 0 for b in BRANCHES}
    single = {b: [0.0, 0] for b in BRANCHES}
    for i in poly:
        pts = spans[i][ATTRS]["pts"]
        for b, n in pts.items():
            points[b] += n
        if len(pts) == 1:
            (b, n), = pts.items()
            single[b][0] += dur[i]
            single[b][1] += n
    m["polylog.calls"] = (len(poly), "count")
    m["polylog.busy_s"] = (busy(poly), "s")
    for b in BRANCHES:
        m[f"polylog.points.{b}"] = (points[b], "count")
    for b in BRANCHES[:3]:
        m[f"polylog.ns_per_point.{b}"] = (1e9 * _ratio(*single[b]), "ns")

    runs = by_name[RUN]
    steps = sum(spans[i][ATTRS]["steps"] for i in runs)
    fermion_runs = {i for i in runs if spans[i][ATTRS]["theta"] == 1}
    fermion_steps = sum(spans[i][ATTRS]["steps"] for i in fermion_runs)
    in_run = [i for i in poly if up[i].get(RUN) is not None]
    # classical runs make one trivial call per step (li = z); leave them out
    quantum_runs = {i for i in runs if spans[i][ATTRS]["theta"] != 0}
    quantum_steps = sum(spans[i][ATTRS]["steps"] for i in quantum_runs)
    in_quantum = [i for i in in_run if up[i][RUN] in quantum_runs]
    fermi_in_fermion = [i for i in in_run if up[i][RUN] in fermion_runs
                        and "fermi" in spans[i][ATTRS]["pts"]]
    m["polylog.calls_per_step"] = (_ratio(len(in_quantum), quantum_steps),
                                   "calls/step")
    m["polylog.fermi_calls_per_step"] = (
        _ratio(len(fermi_in_fermion), fermion_steps), "calls/step")
    m["polylog.fermi_share_of_step"] = (
        _ratio(busy(fermi_in_fermion), busy(fermion_runs)), "share")
    m["polylog.calls_per_state"] = (_ratio(len(poly), states), "calls/state")

    # state
    fits = by_name[FIT]
    ansatz = by_name[ANSATZ]
    m["state.fit_fugacity_batch.calls"] = (len(fits), "count")
    m["state.fit_fugacity_batch.busy_s"] = (busy(fits), "s")
    m["state.ansatz_moments.calls"] = (len(ansatz), "count")
    m["state.ansatz_moments.busy_s"] = (busy(ansatz), "s")
    m["state.ansatz_moments.nodes"] = (
        sum(spans[i][ATTRS]["nodes"] for i in ansatz), "count")
    at64 = [i for i in ansatz if spans[i][ATTRS]["nodes"] == 64 ** 3]
    m["state.ansatz_moments.s_per_call_64"] = (_ratio(busy(at64), len(at64)), "s")

    # matrices
    reg = by_name[ASSEMBLE_REG]
    m["matrices.assemble_A_regularized.calls"] = (len(reg), "count")
    m["matrices.assemble_A_regularized.busy_s"] = (busy(reg), "s")
    for kind in KINDS:
        idx = [i for i in by_name[ASSEMBLE] if spans[i][ATTRS]["kind"] == kind]
        m[f"matrices.assemble_A.calls.{kind}"] = (len(idx), "count")
        m[f"matrices.assemble_A.busy_s.{kind}"] = (busy(idx), "s")

    # spectral
    cls = by_name[CLASSIFY]
    n_mat = sum(spans[i][ATTRS]["matrices"] for i in cls)
    n_slow = sum(spans[i][ATTRS]["n_slow"] for i in cls)
    m["spectral.classify_batch.calls"] = (len(cls), "count")
    m["spectral.classify_batch.matrices"] = (n_mat, "count")
    m["spectral.classify_batch.busy_s"] = (busy(cls), "s")
    m["spectral.n_slow"] = (n_slow, "count")
    m["spectral.slow_path_share"] = (_ratio(n_slow, n_mat), "share")
    per_scan = {s: [0, 0] for s in SCAN_NAMES}
    for i in cls:
        scan = up[i].get(REGION_SCAN)
        if scan is not None:
            acc = per_scan[spans[scan][ATTRS]["scan"]]
            acc[0] += spans[i][ATTRS]["n_slow"]
            acc[1] += spans[i][ATTRS]["matrices"]
    for s in SCAN_NAMES:
        m[f"spectral.slow_path_share.{s}"] = (_ratio(*per_scan[s]), "share")
    diag = by_name[DIAG]
    inner = [i for i in diag if spans[i][PARENT] is not None
             and spans[spans[i][PARENT]][NAME] == CLASSIFY]
    direct = sorted(set(diag) - set(inner))
    for label, idx in (("in_classify_batch", inner), ("direct", direct)):
        m[f"spectral.diagonalizability_test.calls.{label}"] = (len(idx), "count")
        m[f"spectral.diagonalizability_test.busy_s.{label}"] = (busy(idx), "s")

    # analysis
    rnd = by_name[RANDOM_STATE]
    scans = by_name[REGION_SCAN]
    writes = by_name[WRITE_REGION]
    m["analysis.random_moment_state.calls"] = (len(rnd), "count")
    m["analysis.random_moment_state.busy_s"] = (busy(rnd), "s")
    m["analysis.region_scan.self_s"] = (
        float(sum(self_time(spans, kids, i) for i in scans)), "s")
    m["analysis.write_region_csv.busy_s"] = (busy(writes), "s")
    m["analysis.write_region_csv.bytes"] = (
        sum(spans[i][ATTRS]["bytes"] for i in writes), "bytes")
    scan_cls = [i for i in cls if up[i].get(REGION_SCAN) is not None]
    m["analysis.thread_utilization"] = (
        _ratio(busy(scan_cls), busy(scans) * threads), "share")

    # solver1d
    cells_steps = sum(spans[i][ATTRS]["steps"] * spans[i][ATTRS]["cells"]
                      for i in runs)
    fits_per_run: Dict[int, int] = defaultdict(int)
    for i in fits:
        if up[i].get(RUN) is not None:
            fits_per_run[up[i][RUN]] += 1
    m["solver1d.steps"] = (steps, "count")
    m["solver1d.cell_steps_per_s"] = (_ratio(cells_steps, busy(runs)), "1/s")
    m["solver1d.ms_per_step.fermion"] = (
        1e3 * _ratio(busy(fermion_runs), fermion_steps), "ms")
    m["solver1d.fit_li_s"] = (
        busy(i for i in in_run if spans[i][ATTRS]["via"] == "state"), "s")
    m["solver1d.assembly_li_s"] = (
        busy(i for i in in_run if spans[i][ATTRS]["via"] == "solver1d"), "s")
    m["solver1d.eigvals_s"] = (
        busy(i for i in by_name[EIGVALS] if up[i].get(RUN) is not None), "s")
    m["solver1d.self_s"] = (
        float(sum(self_time(spans, kids, i) for i in runs)), "s")
    # the first fit of a run has no warm start; every later one is a fallback
    m["solver1d.newton_fallbacks"] = (
        sum(max(0, n - 1) for n in fits_per_run.values()), "count")
    drifts = [info for info in infos if "mass_drift" in info]
    m["solver1d.mass_drift_max"] = (
        max((d["mass_drift"] for d in drifts), default=0.0), "ratio")
    m["solver1d.energy_drift_max"] = (
        max((d["energy_drift"] for d in drifts), default=0.0), "ratio")

    # cli
    m["cli.self_s"] = (
        float(sum(self_time(spans, kids, i) for i in by_name[CLI_MAIN])), "s")

    # per-call latency of the layers called many times per pass
    for label, name in PERCENTILE_LAYERS.items():
        pct = tail_percentile([1e3 * dur[i] for i in by_name[name]])
        m[f"{label}.call_ms.p50"] = (pct["p50"] or 0.0, "ms")
        m[f"{label}.call_ms.tail"] = (pct["tail"] or 0.0, "ms")
    return m


def latency_table(spans: List[list]) -> Dict[str, dict]:
    """Per-call percentiles and sample counts for every traced entry point."""
    by_name: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(1e3 * (s[END] - s[START]))
    return {name: tail_percentile(v) for name, v in sorted(by_name.items())}


def hand_figures(workload: str, spans: List[list],
                 m: Dict[str, Tuple[float, str]],
                 tolerance: float = 0.2) -> List[dict]:
    """The ROADMAP's hand-timed figures beside this pass's numbers.

    Each figure belongs to the workload that runs its path; `agrees` is false
    when the two differ by more than `tolerance` relative to the hand figure.
    """
    def mean_ms(name: str, parent_is_classify: Optional[bool] = None) -> Optional[float]:
        vals = [1e3 * (s[END] - s[START]) for s in spans if s[NAME] == name
                and (parent_is_classify is None or
                     (s[PARENT] is not None and spans[s[PARENT]][NAME] == CLASSIFY)
                     == parent_is_classify)]
        return sum(vals) / len(vals) if vals else None

    v = {k: val for k, (val, _) in m.items()}
    rows = {
        "solve-riemann": [
            ("ms per Fermion solver step at 400 cells", 35.0,
             v["solver1d.ms_per_step.fermion"]),
            ("share of the Fermion step in the panel quadrature", 0.87,
             v["polylog.fermi_share_of_step"]),
            ("Fermi panel quadratures per step", 8.2,
             v["polylog.fermi_calls_per_step"])],
        "verify-states": [
            ("ms per c5 state in random_moment_state", 1.25, mean_ms(RANDOM_STATE)),
            ("ms per c5 state in the FinalR13 assembly", 0.47,
             mean_ms(ASSEMBLE_REG)),
            ("ms per c5 state in diagonalizability_test", 0.46,
             mean_ms(DIAG, parent_is_classify=False))],
        "closure-quadrature": [
            ("s per ansatz_moments call at 64^3 nodes", 0.33,
             v["state.ansatz_moments.s_per_call_64"])],
    }.get(workload, [])
    out = []
    for label, hand, measured in rows:
        out.append({"figure": label, "roadmap": hand, "traced": measured,
                    "agrees": abs(measured / hand - 1.0) <= tolerance})
    return out

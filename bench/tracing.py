"""Span recording around qgrad13's public entry points, from outside the package.

`install` replaces each traced function in every module namespace that binds
it (for example `solver1d.eval_polylog_batch` and `state.eval_polylog_batch`
separately), so every span carries the module its caller looked the function
up in.  Nothing under `src/` is edited; `uninstall` puts the originals back.

Spans are kept in memory as lists `[name, start, end, parent, thread, op,
attrs]` and written out once the benchmark ends.  A span opened on a worker
thread with no open span of its own takes the innermost open span of the main
thread as its parent, so the thread-pooled `classify_batch` calls of a region
scan nest under that scan.
"""
from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

NAME, START, END, PARENT, THREAD, OP, ATTRS = range(7)

POLYLOG = "polylog.eval_polylog_batch"
FIT = "state.fit_fugacity_batch"
ANSATZ = "state.ansatz_moments"
ASSEMBLE_REG = "matrices.assemble_A_regularized"
ASSEMBLE = "matrices.assemble_A"
CLASSIFY = "spectral.classify_batch"
DIAG = "spectral.diagonalizability_test"
RANDOM_STATE = "analysis.random_moment_state"
REGION_SCAN = "analysis.region_scan"
WRITE_REGION = "analysis.write_region_csv"
RUN = "solver1d.run"
WRITE_SIM = "solver1d.write_csv"
EIGVALS = "numpy.linalg.eigvals"
CLI_MAIN = "cli.main"

#: spans whose descendants the per-layer metrics attribute to them
ANCESTOR_NAMES = frozenset({RUN, REGION_SCAN, CLASSIFY})

#: polylog.py's switch from the power series to the z > 0.9 branches; kept
#: here so the benchmark does not depend on that module's private names
_SERIES_Z_MAX = 0.9


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: List[int] = []

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs_fn: Optional[Callable]) -> object:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        rec = [name, 0.0, 0.0, parent, threading.get_ident(), self.op, {}]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
        if attrs_fn is not None:
            rec[ATTRS] = attrs_fn(args, kwargs, result)
        return result


# ---------------------------------------------------------------------------
# per-call attributes, computed after the call and outside its span

def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _polylog_points(z, theta) -> Dict[str, int]:
    """Points per evaluation branch, classified as polylog.py dispatches them."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if int(theta) == 0:
        return {"classical": int(z.size)}
    lo = int(np.count_nonzero(z <= _SERIES_Z_MAX))
    hi_branch = "fermi" if int(theta) == 1 else "robinson"
    pts = {}
    if lo:
        pts["series"] = lo
    if z.size - lo:
        pts[hi_branch] = int(z.size - lo)
    return pts


def _polylog_attrs(via: str):
    def attrs(args, kwargs, result):
        return {"via": via, "pts": _polylog_points(_arg(args, kwargs, 0, "z"),
                                                  _arg(args, kwargs, 1, "theta"))}
    return attrs


def _ansatz_attrs(args, kwargs, result):
    return {"nodes": int(_arg(args, kwargs, 2, "n_nodes", 64)) ** 3}


def _assemble_attrs(args, kwargs, result):
    return {"kind": _arg(args, kwargs, 0, "kind").value}


def _classify_attrs(args, kwargs, result):
    return {"matrices": int(args[0].shape[0]),
            "n_slow": int(result[1]["n_slow"][0])}


def _scan_attrs(scan: str):
    def attrs(args, kwargs, result):
        return {"scan": scan, "cells": int(result.cells.size)}
    return attrs


def _write_region_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".meta.json")}


def _run_attrs(args, kwargs, result):
    cfg = result.config
    return {"steps": int(result.steps), "cells": int(cfg.cells),
            "theta": int(cfg.theta)}


# ---------------------------------------------------------------------------
# installation

def _targets():
    """(module, attribute, span name, attrs_fn) for every traced binding."""
    import numpy.linalg
    from qgrad13 import analysis, cli, matrices, polylog, solver1d, spectral, state
    out = []
    for mod in (polylog, state, solver1d, spectral, analysis):
        via = mod.__name__.rsplit(".", 1)[1]
        out.append((mod, "eval_polylog_batch", POLYLOG, _polylog_attrs(via)))
    for mod in (state, solver1d):
        out.append((mod, "fit_fugacity_batch", FIT, None))
    for mod in (state, analysis):
        out.append((mod, "ansatz_moments", ANSATZ, _ansatz_attrs))
    for mod in (matrices, cli):
        out.append((mod, "assemble_A_regularized", ASSEMBLE_REG, None))
    for mod in (matrices, analysis):
        out.append((mod, "assemble_A", ASSEMBLE, _assemble_attrs))
    for mod in (spectral, analysis):
        out.append((mod, "classify_batch", CLASSIFY, _classify_attrs))
    out.append((spectral, "diagonalizability_test", DIAG, None))
    out.append((analysis, "random_moment_state", RANDOM_STATE, None))
    for attr, scan in (("region_scan_1d", "region1d"),
                       ("region_scan_3d_cross_section", "region3d"),
                       ("region_scan_regularized", "region-reg")):
        out.append((analysis, attr, REGION_SCAN, _scan_attrs(scan)))
    out.append((analysis, "write_region_csv", WRITE_REGION, _write_region_attrs))
    out.append((solver1d, "run", RUN, _run_attrs))
    for attr in ("write_snapshot_csv", "write_ledger_csv"):
        out.append((solver1d, attr, WRITE_SIM, None))
    out.append((numpy.linalg, "eigvals", EIGVALS, None))
    out.append((cli, "main", CLI_MAIN, None))
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Route every traced binding through `tracer`; returns the undo function."""
    saved = []
    for mod, attr, name, attrs_fn in _targets():
        orig = getattr(mod, attr, None)
        if orig is None:  # a module that no longer binds the name has no calls
            continue

        def wrapper(*args, __orig=orig, __name=name, __attrs=attrs_fn, **kwargs):
            return tracer.call(__name, __orig, args, kwargs, __attrs)

        setattr(mod, attr, functools.wraps(orig)(wrapper))
        saved.append((mod, attr, orig))

    def uninstall() -> None:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)

    return uninstall


# ---------------------------------------------------------------------------
# derived quantities

def children(spans: List[list]) -> List[List[int]]:
    kids: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            kids[s[PARENT]].append(i)
    return kids


def self_time(spans: List[list], kids: List[List[int]], i: int) -> float:
    """Duration of span i minus the union of its children's intervals in it."""
    s0, s1 = spans[i][START], spans[i][END]
    ivs = sorted((max(spans[k][START], s0), min(spans[k][END], s1))
                 for k in kids[i])
    covered, cur0, cur1 = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur1 is None or a > cur1:
            if cur1 is not None:
                covered += cur1 - cur0
            cur0, cur1 = a, b
        else:
            cur1 = max(cur1, b)
    if cur1 is not None:
        covered += cur1 - cur0
    return (s1 - s0) - covered


def tail_percentile(samples_ms: List[float]) -> Dict[str, object]:
    """p50 plus the highest percentile with at least ten samples beyond it."""
    n = len(samples_ms)
    out: Dict[str, object] = {"samples": n, "p50": None, "tail_pct": None,
                              "tail": None}
    if n == 0:
        return out
    arr = np.asarray(samples_ms)
    out["p50"] = float(np.percentile(arr, 50))
    for pct in (99.99, 99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            out["tail_pct"] = pct
            out["tail"] = float(np.percentile(arr, pct))
            break
    return out


def dump(spans: List[list], path: str) -> None:
    """Write spans as JSON lines-of-arrays, times relative to the first span."""
    import json
    t0 = min((s[START] for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write('{"fields": ["name", "start_s", "end_s", "parent", "thread", '
                 '"op", "attrs"], "spans": [\n')
        for k, s in enumerate(spans):
            row = [s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[THREAD],
                   s[OP], s[ATTRS]]
            fh.write(json.dumps(row) + (",\n" if k + 1 < len(spans) else "\n"))
        fh.write("]}\n")

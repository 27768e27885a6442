"""Spans around the public functions of chemoctrl, recorded from outside.

The tracer rebinds module attributes of the imported package: every name
under which a traced function is reachable inside ``chemoctrl`` is pointed at
a wrapper for as long as the tracer is installed.  Nothing in ``src/`` is
changed.  The ``splu`` that ``chemoctrl.sim`` imports is wrapped too, and the
factor it returns is wrapped so that its ``solve`` is traced.

A span is ``[name, start, end, parent index, run id, error, extra]``; spans
stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import statistics
import sys
import time
from collections import defaultdict

TRACED = (
    ("cli", "main"), ("cli", "load_config"), ("cli", "cmd_simulate"),
    ("cli", "cmd_energy_audit"), ("cli", "cmd_optimize"),
    ("sim", "simulate"), ("sim", "step"), ("sim", "solve_comparison"),
    ("sim", "weak_residual"), ("sim", "trajectory_to_dir"),
    ("sim", "trajectory_from_dir"),
    ("grid", "chemotaxis_array"),
    ("energy", "build_energy_report"), ("energy", "energy_inequality_audit"),
    ("energy", "audit_pairs"),
    ("cost", "evaluate_J"), ("cost", "check_admissible"),
    ("opt", "optimize"), ("opt", "finite_difference_gradient"),
)

# simulations started by the optimizer get a span name of their own
CALLER_NAMES = {("opt", "simulate"): "opt.simulate"}


def _dir_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class _TracedFactor:
    """Stands in for a SuperLU factor, whose ``solve`` attribute is read-only."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    def _wrap(self, name, fn, extra=None):
        """Record a span per call; ``extra(args, out)`` gives (value, result)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id,
                   None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                rec[5] = type(err).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[6], out = extra(args, out)
            return out
        return wrapper

    def _factor_extra(self, args, lu):
        solve = self._wrap("sim.lu_solve", lu.solve)
        return lu.nnz, _TracedFactor(lu, solve)

    @contextlib.contextmanager
    def installed(self):
        """Point every traced name inside ``chemoctrl`` at a wrapper."""
        modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                   if name.startswith("chemoctrl.")}
        extras = {
            "sim.factor": self._factor_extra,
            "sim.trajectory_to_dir": lambda args, out: (_dir_bytes(args[1]), out),
            "sim.trajectory_from_dir": lambda args, out: (_dir_bytes(args[0]), out),
        }
        targets = [(f"{mod}.{name}", getattr(modules[mod], name)) for mod, name in TRACED]
        targets.append(("sim.factor", modules["sim"].splu))

        patched = []
        try:
            for span, orig in targets:
                for short, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            name = CALLER_NAMES.get((short, attr), span)
                            patched.append((mod, attr, orig))
                            setattr(mod, attr, self._wrap(name, orig, extras.get(span)))
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "run", "name", "start", "end",
                             "error", "extra"])
            for i, (name, start, end, parent, run, error, extra) in \
                    enumerate(self.spans):
                writer.writerow([i, parent, run, name, repr(start), repr(end),
                                 error or "", "" if extra is None else extra])


def self_times(spans):
    """Per span: its duration minus the time its child spans cover.

    Spans nest on one thread, so children of a span never overlap and the
    covered time is the sum of their durations.
    """
    covered = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (name, start, end, *_) in enumerate(spans)]


def self_time_by_name(spans, run_id):
    """Summed self time of each span name in one run, largest first."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    for rec, own in zip(spans, selfs):
        if rec[4] == run_id:
            totals[rec[0]] += own
    return sorted(totals.items(), key=lambda kv: -kv[1])


def layer_metrics(spans, run_id, trace_rows):
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json.

    ``trace_rows`` are the rows of the optimizer's trace.csv (none for the
    simulation workloads); the line-search ratio counts the rows of descent
    iterations, which are every row but the starting points.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[4] == run_id:
            by_name[rec[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def total(name, idx=None):
        return sum(spans[i][2] - spans[i][1] for i in
                   (by_name[name] if idx is None else idx))

    def own(name):
        return sum(selfs[i] for i in by_name[name])

    def extra(name):
        return [spans[i][6] for i in by_name[name]]

    factor = by_name["sim.factor"]
    comparison = [i for i in factor if spans[i][3] >= 0
                  and spans[spans[i][3]][0] == "sim.solve_comparison"]
    steps = by_name["sim.step"]
    rejected = sum(1 for i in steps if spans[i][5] == "StepSizeError")
    grads = [spans[i][2] - spans[i][1] for i in by_name["opt.finite_difference_gradient"]]
    tried = [row for row in trace_rows if int(row["iteration"]) >= 1]
    accepted = sum(1 for row in tried if row["accepted"] == "1")
    infeasible = sum(1 for i in by_name["opt.simulate"]
                     if spans[i][5] == "StiffnessError")

    return {
        "sim.factor.calls": len(factor),
        "sim.factor.s": total("sim.factor"),
        "sim.factor.lu_nnz": sum(extra("sim.factor")),
        "sim.factor.lu_nnz_max": max(extra("sim.factor"), default=0),
        "sim.factor.comparison.calls": len(comparison),
        "sim.factor.comparison.s": total("sim.factor", comparison),
        "sim.lu_solve.calls": calls("sim.lu_solve"),
        "sim.lu_solve.s": total("sim.lu_solve"),
        "sim.step.calls": len(steps),
        "sim.step.self_s": own("sim.step"),
        "sim.step.rejected": rejected,
        "sim.step.accept_ratio": (len(steps) - rejected) / len(steps) if steps else 0.0,
        "grid.chemotaxis_array.calls": calls("grid.chemotaxis_array"),
        "grid.chemotaxis_array.s": total("grid.chemotaxis_array"),
        "sim.simulate.s": total("sim.simulate"),
        "sim.solve_comparison.self_s": own("sim.solve_comparison"),
        "sim.trajectory_to_dir.s": total("sim.trajectory_to_dir"),
        "sim.trajectory_to_dir.bytes": sum(extra("sim.trajectory_to_dir")),
        "sim.trajectory_from_dir.s": total("sim.trajectory_from_dir"),
        "sim.trajectory_from_dir.bytes": sum(extra("sim.trajectory_from_dir")),
        "energy.build_energy_report.s": total("energy.build_energy_report"),
        "energy.energy_inequality_audit.s": total("energy.energy_inequality_audit"),
        "energy.audit_pairs.s": total("energy.audit_pairs"),
        "sim.weak_residual.s": total("sim.weak_residual"),
        "cost.check_admissible.s": total("cost.check_admissible"),
        "opt.simulate.calls": calls("opt.simulate"),
        "opt.simulate.s": total("opt.simulate"),
        "opt.simulate.self_s": own("opt.simulate"),
        "opt.infeasible.count": infeasible,
        "opt.finite_difference_gradient.calls": len(grads),
        "opt.finite_difference_gradient.s": sum(grads),
        "opt.finite_difference_gradient.self_s": own("opt.finite_difference_gradient"),
        "opt.gradient_s": statistics.median(grads) if grads else 0.0,
        "opt.linesearch.accept_ratio": accepted / len(tried) if tried else 0.0,
        "cost.evaluate_J.calls": calls("cost.evaluate_J"),
        "cost.evaluate_J.s": total("cost.evaluate_J"),
        "cli.load_config.s": total("cli.load_config"),
        "cli.main.self_s": own("cli.main"),
        "cli.cmd_simulate.self_s": own("cli.cmd_simulate"),
        "cli.cmd_energy_audit.self_s": own("cli.cmd_energy_audit"),
        "cli.cmd_optimize.self_s": own("cli.cmd_optimize"),
    }


# counts that must repeat exactly across runs of one seed
EXACT_COUNTS = ("sim.factor.calls", "sim.step.calls", "opt.simulate.calls")

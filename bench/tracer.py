"""In-memory span tracer installed around the package's module boundaries.

The wrappers live here, in the benchmark, and are bound over the package's
public functions at run time; the package itself is never edited. Every
name a function is reachable under inside the package is rebound, so calls
through imported aliases (``simulation.minimax_fit_lp``,
``closed_form.max_abs_residual``, ...) are traced as well. ``uninstall``
puts every original back, so untraced calls run the unmodified program.

A span is (name, start, end, parent index). A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested on one thread, so that is the part of its interval no child covers.
Counts are read only from arguments and returned public fields.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _count_sample(counts, args, kwargs, result):
    counts["evt.sample.draws"] += len(result)


def _count_sample_attraction(counts, args, kwargs, result):
    counts["evt.sample_attraction.draws"] += len(result)


def _count_limit_cdf(counts, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts["evt.limit_cdf.points"] += int(getattr(x, "size", 1))


def _count_matrix(counts, args, kwargs, result):
    counts["model.matrix.bytes"] += int(result.nbytes)


def _count_fit_lp(counts, args, kwargs, result):
    counts["lp.nonunique"] += bool(result.diagnostics.get("nonunique_suspected", False))


def _count_simplex(counts, args, kwargs, result):
    rows, cols = args[0].shape
    counts["simplex.pivots"] += int(result.iterations)
    # Each pivot prices the phase tableau [A | I]: rows x (cols + rows) doubles.
    counts["simplex.priced_bytes"] += int(result.iterations) * rows * (cols + rows) * 8


def _count_run_experiment(counts, args, kwargs, result):
    counts["simulation.failures"] += sum(
        int(cell.failures) for entry in result.per_n for cell in entry.methods.values()
    )


def _count_read_fit_csv(counts, args, kwargs, result):
    counts["cli.read_fit_csv.rows"] += len(result[1])


def _count_atomic_write(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["report_io.bytes"] += len(text.encode())


# (module, attribute, span name, counter). The span name is the layer's
# module name and the public function, as the metric names use them.
TARGETS = (
    ("evt", "sample", "evt.sample", _count_sample),
    ("evt", "sample_attraction", "evt.sample_attraction", _count_sample_attraction),
    ("evt", "limit_cdf", "evt.limit_cdf", _count_limit_cdf),
    ("model", "simulate_dataset", "model.simulate_dataset", None),
    ("model", "group_extremes_replicated", "model.group_extremes_replicated", None),
    ("model", "max_abs_residual", "model.max_abs_residual", None),
    ("model", "ReplicatedDesign.matrix", "model.matrix", _count_matrix),
    ("lp", "minimax_fit_lp", "lp.minimax_fit_lp", _count_fit_lp),
    ("simplex", "solve_standard_form", "simplex.solve_standard_form", _count_simplex),
    ("closed_form", "closed_form_fit", "closed_form.closed_form_fit", None),
    ("closed_form", "lse_fit", "closed_form.lse_fit", None),
    ("simulation", "run_experiment", "simulation.run_experiment", _count_run_experiment),
    ("simulation", "ks_distance", "simulation.ks_distance", None),
    ("cli", "main", "cli.main", None),
    ("cli", "read_fit_csv", "cli.read_fit_csv", _count_read_fit_csv),
    ("cli", "detect_replication", "cli.detect_replication", None),
    ("cli", "parse_experiment_config", "cli.parse_experiment_config", None),
    ("report_io", "canonical_json", "report_io.canonical_json", None),
    ("report_io", "tsv_table", "report_io.tsv_table", None),
    ("report_io", "atomic_write_text", "report_io.atomic_write_text", _count_atomic_write),
)

PACKAGE = "minimaxreg"


class Tracer:
    """Spans and counts for the traced calls of one benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, name, orig, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every package-level name of each target to its wrapper."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, attr, span_name, counter in TARGETS:
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[method]
                self._restore.append((cls, method, orig))
                setattr(cls, method, self._wrap(span_name, orig, counter))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(span_name, orig, counter)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, alias, orig))
                        setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        for owner, alias, orig in reversed(self._restore):
            setattr(owner, alias, orig)
        self._restore = []

    def summary(self) -> dict:
        """Per-name totals: inclusive seconds, self seconds and call count.

        Inclusive time counts only a name's outermost spans, so a function
        reached again below itself is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[idx]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                rec["s"] += dur
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

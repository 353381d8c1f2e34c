"""Command-line entry point: fit CSV data, run experiments, tabulate laws.

Exit codes: 0 success, 2 malformed input or configuration, 3 singular or
wrong-shape design for the requested method, or an LP the solver cannot
bring to optimality, 4 experiment failure-rate breach. All state flows
through flags and files; outputs are written atomically so failed runs
leave nothing behind.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
import warnings

import numpy as np

from .closed_form import closed_form_fit, lse_fit
from .errors import (
    ExperimentFailureRateError,
    MinimaxRegError,
    RankDeficientError,
    SingularDesignError,
    SolverStatusError,
    WrongShapeError,
)
from .evt import ErrorModel, LimitLaw, limit_cdf
from .lp import minimax_fit_lp
from .model import Dataset, Design, ReplicatedDesign
from .report_io import atomic_write_text, canonical_json, tsv_table
from .simulation import ExperimentConfig, ecdf_table, run_experiment

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SINGULAR = 3
EXIT_FAILURE_RATE = 4

_FAMILY_ALIASES = {
    "uniform": "uniform_symmetric",
    "uniform_symmetric": "uniform_symmetric",
    "laplace": "laplace",
    "bounded_power": "bounded_power",
    "pareto": "pareto_symmetric",
    "pareto_symmetric": "pareto_symmetric",
    "gaussian": "gaussian",
}

_CONFIG_REQUIRED = ("family", "v", "m", "seed", "theta", "methods")
_CONFIG_KEYS = set(_CONFIG_REQUIRED) | {
    "alpha", "n", "n_ladder", "reference_draws", "jobs", "ks_threshold",
}


class CliInputError(MinimaxRegError):
    """Bad user input (CSV, config file, or flag combination)."""


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_family(name: str, alpha) -> ErrorModel:
    key = name.strip().lower()
    if key not in _FAMILY_ALIASES:
        raise CliInputError(f"unknown family {name!r}")
    family = _FAMILY_ALIASES[key]
    if family in ("bounded_power", "pareto_symmetric"):
        if alpha is None:
            raise CliInputError(f"family {family} needs alpha")
        return ErrorModel(family, float(alpha))
    if alpha is not None:
        raise CliInputError(f"family {family} takes no alpha")
    return ErrorModel(family)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _read_header(path: str, reader) -> int:
    """Check the header row x1,...,xq,y and return q."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise CliInputError(f"{path}: file is empty") from None
    q = len(header) - 1
    expected = [f"x{i + 1}" for i in range(q)] + ["y"]
    if q < 1 or header != expected:
        raise CliInputError(
            f"{path}: header must be {','.join(f'x{i + 1}' for i in range(max(q, 1)))},y"
            f" but got {','.join(header)}"
        )
    return q


def read_fit_csv(path: str):
    """Read a ``fit`` CSV: header x1,...,xq,y, then >= 1 row of finite cells.

    A cell is accepted when Python ``float()`` accepts it (quoted cells,
    surrounding whitespace and ``1_0`` included) and the value is finite.
    Lines whose cells are all blank are skipped. The body is parsed in C by
    ``np.loadtxt``; whatever that parser refuses, or any non-finite value,
    sends the file to ``_read_fit_csv_strict``, which either returns the same
    arrays or raises the ``CliInputError`` that names the line and column.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CliInputError(f"cannot open {path}: {exc}") from exc
    with fh:
        q = _read_header(path, csv.reader(fh))
        try:
            with warnings.catch_warnings():
                # An empty body only warns; it falls back below like any misfit.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if (data is None or data.shape[0] == 0 or data.shape[1] != q + 1
            or not np.isfinite(data).all()):
        return _read_fit_csv_strict(path)
    return data[:, :q], data[:, q]


def _read_fit_csv_strict(path: str):
    """Line-by-line reader behind ``read_fit_csv``: words every input error.

    A non-finite cell is reported only once every cell has parsed, so a file
    with some other fault gets the message it always got.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CliInputError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        q = _read_header(path, reader)
        rows, ys = [], []
        non_finite = None
        for line_no, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != q + 1:
                raise CliInputError(
                    f"{path}: line {line_no}: expected {q + 1} cells, got {len(row)}"
                )
            vals = []
            for col, cell in enumerate(row, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise CliInputError(
                        f"{path}: line {line_no}, column {col}: {cell.strip()!r} is not numeric"
                    ) from None
                if non_finite is None and not math.isfinite(vals[-1]):
                    non_finite = f"line {line_no}, column {col}: {cell.strip()!r} is not finite"
            rows.append(vals[:q])
            ys.append(vals[q])
        if not rows:
            raise CliInputError(f"{path}: no data rows")
        if non_finite is not None:
            raise CliInputError(f"{path}: {non_finite}")
    return np.asarray(rows), np.asarray(ys)


def detect_replication(X: np.ndarray, y: np.ndarray):
    """Group rows by exact regressor-tuple equality.

    Returns (ReplicatedDesign, reordered y) when the groups are balanced and
    at least one row repeats; None otherwise. Levels come in lexicographic
    row order and y level by level, keeping the input order within a level,
    as ``np.unique(X, axis=0)`` orders them; one stable ``np.lexsort`` finds
    the groups.
    """
    order = np.lexsort(X.T[::-1])
    ordered = X[order]
    first = np.ones(X.shape[0], dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=X.shape[0])
    if starts.size == X.shape[0] or not np.all(counts == counts[0]):
        return None
    if np.signbit(X[X == 0]).any():
        # A level may hold both 0.0 and -0.0. np.unique keeps whichever its
        # unstable sort puts first, so its level rows are taken, bits and all.
        levels = np.unique(X, axis=0, return_inverse=True)[0]
    else:
        levels = ordered[starts]
    return ReplicatedDesign(levels, int(counts[0])), y[order]


def cmd_fit(args) -> int:
    try:
        X, y = read_fit_csv(args.input)
    except CliInputError as exc:
        return _fail(str(exc), EXIT_INPUT)
    replicated = detect_replication(X, y)
    rep_info = None
    try:
        if args.method == "closed":
            if replicated is None:
                return _fail(
                    "closed-form fit needs a replicated design (balanced repeated rows)",
                    EXIT_SINGULAR,
                )
            design, y_ordered = replicated
            if design.n_levels != design.n_params:
                return _fail(
                    f"closed-form fit needs k = q, got k={design.n_levels}, "
                    f"q={design.n_params}",
                    EXIT_SINGULAR,
                )
            fit = closed_form_fit(Dataset(design, y_ordered))
            rep_info = {"k": design.n_levels, "n": design.reps}
        elif args.method == "lp":
            if replicated is not None:
                design, y_ordered = replicated
                dataset = Dataset(design, y_ordered)
                rep_info = {"k": design.n_levels, "n": design.reps}
            else:
                dataset = Dataset(Design(X), y)
            fit = minimax_fit_lp(dataset)
        else:
            fit = lse_fit(Dataset(Design(X), y))
    except (SingularDesignError, WrongShapeError, RankDeficientError,
            SolverStatusError) as exc:
        return _fail(str(exc), EXIT_SINGULAR)
    resid = y - X @ fit.theta_hat
    report = {
        "method": fit.method,
        "theta_hat": [float(t) for t in fit.theta_hat],
        "delta_hat": float(fit.delta_hat),
        "n_obs": int(X.shape[0]),
        "n_params": int(X.shape[1]),
        "replicated_design": rep_info,
        "residual_summary": {
            "min": float(resid.min()),
            "max": float(resid.max()),
            "max_abs": float(np.abs(resid).max()),
            "mean_abs": float(np.abs(resid).mean()),
        },
        "duality_gap": float(fit.diagnostics["duality_gap"]) if "duality_gap" in fit.diagnostics else None,
        "nonunique_suspected": bool(fit.diagnostics.get("nonunique_suspected", False)),
    }
    atomic_write_text(args.output, canonical_json(report))
    if args.verbose:
        print(f"{fit.method}: theta_hat={list(fit.theta_hat)} delta_hat={fit.delta_hat}")
    print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def parse_experiment_config(path: str, seed_override=None) -> ExperimentConfig:
    # Semicolons separate the rows of "v", so only "#" starts a comment.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise CliInputError(f"cannot open {path}: {exc}") from exc
    except configparser.Error as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    sections = parser.sections()
    if sections != ["experiment"]:
        raise CliInputError(
            f"{path}: expected exactly one [experiment] section, got {sections or 'none'}"
        )
    raw = dict(parser["experiment"])
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise CliInputError(f"{path}: unknown config key {key!r}")
    for key in _CONFIG_REQUIRED:
        if key not in raw:
            raise CliInputError(f"{path}: missing required key {key!r}")
    if ("n" in raw) == ("n_ladder" in raw):
        raise CliInputError(f"{path}: exactly one of 'n' or 'n_ladder' is required")

    model = _parse_family(raw["family"], raw.get("alpha"))
    theta = _parse_floats(raw["theta"])
    if ";" in raw["v"]:
        rows = [_parse_floats(part) for part in raw["v"].split(";")]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise CliInputError(f"{path}: ragged rows in 'v'")
        levels = np.asarray(rows)
    else:
        flat = _parse_floats(raw["v"])
        if len(flat) % len(theta) != 0:
            raise CliInputError(
                f"{path}: 'v' has {len(flat)} entries, not a multiple of q={len(theta)}"
            )
        levels = np.asarray(flat).reshape(-1, len(theta))
    if levels.shape[1] != len(theta):
        raise CliInputError(
            f"{path}: 'v' has {levels.shape[1]} columns but theta has {len(theta)} entries"
        )
    if "n" in raw:
        n_values = (int(raw["n"]),)
    else:
        n_values = tuple(int(float(tok)) for tok in raw["n_ladder"].replace(",", " ").split())
    methods = tuple(raw["methods"].replace(",", " ").split())
    seed = int(raw["seed"]) if seed_override is None else int(seed_override)
    try:
        return ExperimentConfig(
            model=model,
            levels=levels,
            n_values=n_values,
            replications=int(raw["m"]),
            master_seed=seed,
            true_theta=np.asarray(theta),
            methods=methods,
            reference_draws=int(raw.get("reference_draws", 1_000_000)),
            ks_threshold=float(raw.get("ks_threshold", 0.05)),
            jobs=int(raw.get("jobs", 1)),
        )
    except MinimaxRegError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _ecdf_outputs(report, stem: str, max_points) -> dict:
    """One (x, F) table per tracked statistic, keyed by output filename."""
    out = {}
    uniform = report.config.model.family == "uniform_symmetric"
    for entry in report.per_n:
        for name in sorted(entry.methods):
            cell = entry.methods[name]
            if cell.delta_scaled.size == 0:
                continue
            stats = {"delta_scaled": cell.delta_scaled}
            for i in range(cell.theta_scaled.shape[1]):
                stats[f"theta{i}_scaled"] = cell.theta_scaled[:, i]
            if uniform:
                stats["n_one_minus_delta"] = entry.n * (1.0 - cell.delta[cell.valid])
            for stat, values in stats.items():
                table = ecdf_table(values, max_points=max_points)
                out[f"{stem}.n{entry.n}.{name}.{stat}.ecdf.tsv"] = tsv_table(table)
    return out


def cmd_simulate(args) -> int:
    try:
        config = parse_experiment_config(args.config, seed_override=args.seed)
    except CliInputError as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        report = run_experiment(config)
    except ExperimentFailureRateError as exc:
        return _fail(str(exc), EXIT_FAILURE_RATE)
    except MinimaxRegError as exc:
        return _fail(str(exc), EXIT_INPUT)
    stem = args.output
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    max_points = (1 << 62) if args.full_ecdf else 4096
    files = {args.output: canonical_json(report.to_dict())}
    files.update(_ecdf_outputs(report, stem, max_points))
    for path, text in files.items():
        atomic_write_text(path, text)
    print(f"wrote {len(files)} files ({args.output})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

_LAW_NAMES = ("max", "sum", "qpower", "midrange", "delta", "logistic")


def _resolve_law(args, model: ErrorModel) -> LimitLaw:
    att = model.attraction
    q = int(args.q)
    if q < 1:
        raise CliInputError(f"q must be >= 1, got {q}")
    if args.law == "max":
        return LimitLaw("max", att)
    if args.law == "sum":
        return LimitLaw("sum", att)
    if args.law == "qpower":
        return LimitLaw("qpower", att, q=q)
    if args.law == "midrange":
        return LimitLaw("midrange_diff", att)
    if args.law == "delta":
        if not (att.kind == "weibull" and att.alpha == 1.0):
            raise CliInputError(
                f"law 'delta' needs a weibull(1) family (uniform), not {model.family}"
            )
        return LimitLaw("uniform_delta", q=q)
    if att.kind != "gumbel":
        raise CliInputError(
            f"law 'logistic' is the midrange law of gumbel families, not {model.family}"
        )
    return LimitLaw("logistic")


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliInputError(f"grid must be lo:hi:steps, got {spec!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise CliInputError(f"grid must be lo:hi:steps with numeric parts, got {spec!r}") from None
    if steps < 2 or not hi > lo:
        raise CliInputError(f"grid needs hi > lo and steps >= 2, got {spec!r}")
    return np.linspace(lo, hi, steps)


def cmd_limits(args) -> int:
    try:
        model = _parse_family(args.family, args.alpha)
        law = _resolve_law(args, model)
        grid = _parse_grid(args.grid)
    except (CliInputError, MinimaxRegError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    values = limit_cdf(law, grid)
    atomic_write_text(args.output, tsv_table(np.column_stack([grid, values])))
    print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxreg",
        description="Minimax (Chebyshev) regression fits and extreme-value "
        "limit-law verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a CSV dataset (header x1,...,xq,y)")
    fit.add_argument("--input", required=True, help="input CSV path")
    fit.add_argument("--method", required=True, choices=("lp", "closed", "lse"))
    fit.add_argument("--output", required=True, help="output report path (JSON)")
    fit.add_argument("-v", "--verbose", action="store_true")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="run a configured Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="experiment config (key = value)")
    sim.add_argument("--output", required=True, help="output report path (JSON)")
    sim.add_argument("--seed", type=int, default=None, help="master seed override")
    sim.add_argument("--full-ecdf", action="store_true",
                     help="export full ECDF tables instead of 4096-point thinning")
    sim.set_defaults(func=cmd_simulate)

    lim = sub.add_parser("limits", help="tabulate a limiting CDF on a grid")
    lim.add_argument("--family", required=True,
                     help="uniform|laplace|bounded_power|pareto|gaussian")
    lim.add_argument("--alpha", type=float, default=None)
    lim.add_argument("--law", required=True, choices=_LAW_NAMES)
    lim.add_argument("--q", type=int, default=1)
    lim.add_argument("--grid", required=True, help="lo:hi:steps")
    lim.add_argument("--output", required=True, help="output TSV path")
    lim.set_defaults(func=cmd_limits)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

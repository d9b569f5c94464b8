"""Command-line front end: predict, variogram, study, verify.

Datasets are CSV files with a header row naming the coordinate columns
``x1..xd`` followed by the response column ``y``.  Model configuration is a
JSON document carrying the kernel/mean/noise description plus a ``variant``
key (sk, ok, uk, gpr, gpr-basis); ``verify`` runs that model as ``predict``
does before its checks, so the two reject and warn alike.  Prediction
targets come either from repeated ``--grid lo:hi:count`` flags (one per
dimension, expanded in row-major order) or from a ``--points`` CSV file.

Numbers are emitted in shortest round-trip decimal form, so every value in
an output file equals the corresponding library result exactly.  Exit
codes: 0 success, 2 input/parse error, 3 numerical singularity, 4 study
failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from .exceptions import InputError, NumericalError, SingularityError, StudyError
from .kernels import (
    _MAX_FLOATS,
    Dataset,
    MeanSpec,
    _nonnegative,
    empirical_semivariogram,
    model_from_json,
    semivariogram_of,
)
from .kriging import _Engine, _variant_mean
from .oracle import _bordered_blocks, _bordered_route, _direct_route, _plugin_route
from .simulate import run_study, study_config_from_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SINGULAR = 3
EXIT_STUDY = 4
EXIT_VERIFY = 5

VERIFY_TOL = 1e-8


# ---------------------------------------------------------------------------
# File input
# ---------------------------------------------------------------------------


def _plain(kind):
    """``kind`` (float or int) for text, refusing the PEP 515 digit-group
    underscores both accept, so ``1_0`` is an error rather than 10."""
    def parse(text: str):
        if "_" in text:
            raise ValueError(f"invalid {kind.__name__} value: {text!r}")
        return kind(text)
    parse.__name__ = kind.__name__  # argparse names the type in its error message
    return parse


_float, _int = _plain(float), _plain(int)


def _first_bad_row(path: str, body, ncols: int) -> None:
    """Raise the error of the first row of ``body`` that fails a check.

    ``body`` holds (line number, stripped line) pairs; an empty line is
    skipped, and each other row is checked for its field count, then for a
    ``_``, then parsed, then checked for finite values.
    """
    for lineno, line in body:
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != ncols:
            raise InputError(
                f"{path}: line {lineno}: expected {ncols} fields, got {len(fields)}"
            )
        if "_" in line:  # _plain's rule, checked once per line rather than per field
            raise InputError(f"{path}: line {lineno}: digit-group underscores are not accepted")
        try:
            values = [float(f) for f in fields]
        except ValueError as err:
            raise InputError(f"{path}: line {lineno}: {err}") from err
        if not all(map(math.isfinite, values)):
            raise InputError(f"{path}: line {lineno}: non-finite value")


def _read_text(path: str) -> str:
    """The whole text of the file at ``path``: UTF-8, after an optional BOM.

    Text mode reads "\r\n" and "\r" as "\n".  Bytes that are not UTF-8
    raise an :class:`InputError` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not valid UTF-8 ({err.reason})") from err


def read_point_table(path: str, expect_response: bool = True):
    """Read a coordinates(+response) CSV; returns (X, y or None).

    The file is UTF-8, optionally after a byte-order mark, which is
    skipped.  Blank lines are skipped.  Fields are plain decimals:
    ``float()`` reads each, padding and all, and a line holding a ``_`` is
    refused.  The file is read in one piece: the field counts, the ``_``
    rule and finiteness are checked over the whole table, and every field
    is parsed by one ``map(float, ...)``.  Only once a whole-table check
    has failed are the rows checked one by one, so that the error cites the
    first bad row's 1-based line number in the file, and its first failing
    check in the order: field count, ``_``, parse, finite.
    """
    # these are the lines iterating the file gives; stripped, a blank one is empty
    lines = list(map(str.strip, _read_text(path).split("\n")))
    start = next((k for k, line in enumerate(lines) if line), None)
    if start is None:
        raise InputError(f"{path}: empty file")
    header_lineno = start + 1
    header = [f.strip() for f in lines[start].split(",")]
    # a trailing response column is tolerated (and ignored) in points files
    has_response = len(header) > 1 and header[-1] == "y"
    if expect_response and not has_response:
        raise InputError(f"{path}: line {header_lineno}: header must end with a 'y' column")
    coord_names = header[:-1] if has_response else header
    dim = len(coord_names)
    expected = [f"x{i + 1}" for i in range(dim)]
    if coord_names != expected:
        raise InputError(
            f"{path}: line {header_lineno}: coordinate columns must be "
            f"{','.join(expected)}, got {','.join(coord_names)}"
        )
    ncols = len(header)
    rows = list(filter(None, lines[start + 1:]))
    if not rows:
        raise InputError(f"{path}: no data rows")
    text = ",".join(rows)
    table = None
    if set(map(str.count, rows, itertools.repeat(","))) == {ncols - 1} and "_" not in text:
        try:
            table = np.fromiter(map(float, text.split(",")), float).reshape(len(rows), ncols)
        except ValueError:
            pass
    if table is None or not np.isfinite(table).all():
        _first_bad_row(path, enumerate(lines[start + 1:], start=start + 2), ncols)
    return table[:, :dim], (table[:, dim] if expect_response else None)


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: line {err.lineno}: invalid JSON: {err.msg}") from err


def _parse_grid(specs: list[str], dim: int) -> np.ndarray:
    if len(specs) != dim:
        raise InputError(f"need {dim} --grid specs (one per dimension), got {len(specs)}")
    axes = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError(f"bad grid spec {spec!r}; expected lo:hi:count")
        try:
            lo, hi, count = _float(parts[0]), _float(parts[1]), _int(parts[2])
        except ValueError as err:
            raise InputError(f"bad grid spec {spec!r}: {err}") from err
        if count < 1:
            raise InputError(f"bad grid spec {spec!r}: count must be positive")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputError(f"bad grid spec {spec!r}: bounds must be finite")
        axes.append((lo, hi, count))
    if math.prod(count for _, _, count in axes) * dim >= _MAX_FLOATS:
        raise InputError(f"grid point count x dimension must be below {_MAX_FLOATS}")
    mesh = np.meshgrid(*(np.linspace(*axis) for axis in axes), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _resolve_targets(args, dim: int) -> np.ndarray:
    if args.grid and args.points:
        raise InputError("give either --grid or --points, not both")
    if args.grid:
        return _parse_grid(args.grid, dim)
    if args.points:
        xs, _ = read_point_table(args.points, expect_response=False)
        if xs.shape[1] != dim:
            raise InputError(
                f"target points have dimension {xs.shape[1]}, data has {dim}"
            )
        return xs
    raise InputError("prediction targets required: --grid or --points")


def _write_lines(path: str | None, lines) -> None:
    """Write ``lines``, each ended by a newline, to ``path``, or to stdout if it is None."""
    text = "".join(line + "\n" for line in lines)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def _model_from_config(config: dict, dim: int):
    kernel, mean, noise = model_from_json(config, dim=dim)
    return kernel, mean, noise, _nonnegative(config.get("max_jitter", 0.0), "max_jitter")


def _load_problem(args):
    """The dataset, config, kernel, mean, max_jitter and targets of predict and verify."""
    x, y = read_point_table(args.data)
    config = _load_json(args.config)
    kernel, mean, noise, max_jitter = _model_from_config(config, x.shape[1])
    data = Dataset(x, y, noise)
    return data, config, kernel, mean, max_jitter, _resolve_targets(args, data.dim)


def _run_configured(engine: _Engine, config: dict, mean: MeanSpec):
    """The configured variant's batch on ``engine``, warning on stderr if S was jittered."""
    batch = engine.predict(config.get("variant"), mean)
    if engine.factor.jitter_used > 0.0:
        print("warning: diagonal jitter was added to factor the covariance",
              file=sys.stderr)
    return batch


def cmd_predict(args) -> int:
    data, config, kernel, mean, max_jitter, targets = _load_problem(args)
    batch = _run_configured(_Engine(data, kernel, targets, max_jitter), config, mean)

    header = [f"x{i + 1}" for i in range(data.dim)] + ["mean", "error_variance"]
    table = np.column_stack([targets, batch.mean, batch.variance]).tolist()
    _write_lines(args.out, [",".join(header)] + [",".join(map(repr, row)) for row in table])
    return EXIT_OK


# ---------------------------------------------------------------------------
# variogram
# ---------------------------------------------------------------------------


def cmd_variogram(args) -> int:
    x, y = read_point_table(args.data)
    centers, counts, gamma = empirical_semivariogram(x, y, args.bins, args.max_lag)
    model = None
    if args.config:
        config = _load_json(args.config)
        kernel, _, _, _ = _model_from_config(config, x.shape[1])
        model = semivariogram_of(kernel, centers)

    header = ["lag_center", "pair_count", "empirical_semivariance"]
    columns = [centers, counts, gamma]
    if model is not None:
        header.append("model_semivariance")
        columns.append(model)
    lines = [",".join(header)]
    for row in zip(*(c.tolist() for c in columns)):
        fields = [repr(v) for v in row]
        if row[1] == 0:  # an empty bin leaves its empirical field blank
            fields[2] = ""
        lines.append(",".join(fields))
    _write_lines(args.out, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------


def cmd_study(args) -> int:
    cfg = study_config_from_json(_load_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_study(cfg)
    _write_lines(args.out, [json.dumps(report.to_dict(), indent=2, sort_keys=True,
                                       allow_nan=False)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    data, config, kernel, mean, max_jitter, targets = _load_problem(args)

    # one engine target stage serves every variant below; on noise-free data
    # the rows after the m targets are the data points, for the interpolation row
    m, noisy = targets.shape[0], data.noise_variance > 0.0
    engine = _Engine(data, kernel, targets if noisy else np.vstack([targets, data.x]),
                     max_jitter)
    # the configured model runs first, as in predict; the engine fits each
    # mean assumption once, whichever rows share it
    _run_configured(engine, config, mean)

    basis = _variant_mean("uk", mean) if mean.kind == "basis" else MeanSpec.polynomial(data.dim, 1)
    known = mean if mean.is_identified else MeanSpec.known_constant(0.0)

    results: list[tuple[str, float | None, str]] = []

    def record(name, a_mean, a_var, b_mean, b_var):
        # the largest relative deviation of two routes' means and variances
        dev_mean = np.abs(a_mean - b_mean) / np.maximum(1.0, np.abs(a_mean))
        dev_var = np.abs(a_var - b_var) / np.maximum(1.0, np.abs(a_var))
        deviation = float(np.max(np.maximum(dev_mean, dev_var)))
        results.append((name, deviation, "pass" if deviation <= VERIFY_TOL else "fail"))

    def row(name, batch, route, *route_args):
        # ``batch`` is the engine's, checked against ``route``, or why the row is skipped
        if isinstance(batch, str):
            results.append((name, None, batch))
        else:
            route = route(data, kernel, *route_args)
            record(name, batch.mean[:m], batch.variance[:m], route.mean, route.variance)

    # the Cholesky routes solve against the engine's factor with their own
    # algebra; the LU routes share one S of their own, with the engine's jitter
    ok = engine.predict("ok")
    factor = engine.factor
    blocks = _bordered_blocks(data, kernel, targets, factor.jitter_used)

    row("ok_vs_ok_direct", ok, _direct_route, targets, factor)
    row("ok_vs_sk_plus_gls", ok, _plugin_route, MeanSpec.constant_unknown(), targets, factor)
    # a trend row runs where the engine can fit the trend basis, whatever the
    # configured variant; uk and gpr-basis resolve it to one assumption
    if basis.p > data.n:
        trend = "skipped (p > n)"
    else:
        try:
            trend = engine.predict("uk", basis)
        except SingularityError:  # S is factored, so only the basis Gram can fail
            trend = "skipped (rank < p)"
    row("uk_vs_sk_plus_gls_beta", trend, _plugin_route, basis, targets, factor)
    row("gpr_vs_sk", engine.predict("gpr", known), _bordered_route, known, targets, blocks)
    row("gpr_basis_vs_uk", trend, _bordered_route, basis, targets, blocks)

    if noisy:
        results.append(("interpolation", None, "skipped (noisy)"))
    else:
        # OK must return y at the data points (misses scaled by |y|) with variance 0
        record("interpolation", data.y, np.zeros(data.n), ok.mean[m:], ok.variance[m:])

    width = max(len(name) for name, _, _ in results)
    for name, deviation, status in results:
        dev_text = "-" if deviation is None else f"{deviation:.3e}"
        print(f"{name:<{width}}  {dev_text:>11}  {status}")

    failing = [(n, d) for n, d, s in results if s == "fail"]
    if failing:
        for name, deviation in failing:
            print(f"verification failed: {name} deviates by {deviation:.6e}",
                  file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it as it was: ``--grid`` appends to a copy of its empty
    default, and argparse looks up stdout and stderr when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="gpkrige",
        description="Kriging and Gaussian-process prediction over CSV point data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the data, model and targets, shared by predict and verify
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--data", required=True, help="training CSV (x1..xd,y)")
    inputs.add_argument("--config", required=True, help="model config JSON with 'variant'")
    inputs.add_argument("--grid", action="append", default=[],
                        help="per-dimension grid spec lo:hi:count (repeat per dimension)")
    inputs.add_argument("--points", help="CSV of target points (x1..xd)")

    p = sub.add_parser("predict", parents=[inputs],
                       help="predict at grid or listed target points")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("variogram", help="binned empirical semivariogram")
    p.add_argument("--data", required=True)
    p.add_argument("--bins", type=_int, required=True)
    p.add_argument("--max-lag", type=_float, required=True, dest="max_lag")
    p.add_argument("--config", help="optional model config for the model column")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_variogram)

    p = sub.add_parser("study", help="run a replicated predictor comparison study")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--seed", type=_int, help="override the config seed")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("verify", parents=[inputs],
                       help="run the cross-path equivalence checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (SingularityError, NumericalError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except StudyError as err:
        print(f"study failed: {err}", file=sys.stderr)
        return EXIT_STUDY
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:
        print(f"error: cannot allocate: {err}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

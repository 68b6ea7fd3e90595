"""Command-line front end.

Subcommands: ``curve`` (analytic corner points plus a dense sampling),
``simulate`` (Monte Carlo outage table), ``fit`` (slope fit and verdict
against the analytic curve), and ``validate`` (gain distribution checks).
Exit codes: 0 success, 2 invalid input, 3 statistical failure.

``curve``, ``simulate`` and ``validate`` also read a ``key = value`` config
file (``--config PATH``) whose entries become parser defaults; flags override
them. A key that names no flag of any command exits 2; a key of another
command's flag is ignored. Defaults: samples 100000, seed 0, shards 1,
format csv, tol 0.15, mean-tol 0.01, var-tol 0.03. Weights accept decimals or fractions (``3/5``).
Tolerances must be finite and >= 0, an SNR grid must be finite with at
most ``MAX_SNR_POINTS`` points, and ``fit`` exits 2 on a non-finite
window or a table row that lacks a column or disagrees with its ``K``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .core import (
    SCENARIO_KINDS,
    AntennaProfile,
    DmtError,
    Scenario,
    Weights,
    validate_weights,
)
from .dmt_analytic import curve_for_scenario
from .channel_sim import (
    OutageEstimate,
    outage_probability,
    validate_gain_distribution,
)
from .exponent_fit import compare, fit_slope

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAT_FAIL = 3

CSV_COLUMNS = (
    "scenario,K,M,weights,r,rho_db,n_samples,n_outages,p_hat,ci_low,ci_high,seed,shards"
)

CURVE_RESOLUTION = 0.01
MAX_SNR_POINTS = 10_000  # simulate runs one estimate per point and r


class CliError(DmtError):
    """Invalid command-line or config-file input."""


def _fmt(x: float) -> str:
    """Serialize a float with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _csv_cell(value) -> str:
    """One simulate-table field as CSV text: floats through :func:`_fmt`,
    everything else (strings, integer counts) as ``str``."""
    return _fmt(value) if isinstance(value, float) else str(value)


def _parse_fraction(token: str) -> Fraction:
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse number {token!r}") from exc


def parse_weights(text: str) -> Weights:
    """Comma-separated weights, decimals or fractions, exactly normalized.

    Fractions are kept exact through normalization, so e.g. ``3/5,2/5``
    yields float weights whose sum is exactly 1.
    """
    parts = [_parse_fraction(tok) for tok in text.split(",") if tok.strip()]
    if not parts:
        raise CliError("empty weight list")
    total = sum(parts)
    if abs(total - 1) > Fraction(1, 10**9):
        raise CliError(f"weights sum to {float(total)}, expected 1 within 1e-9")
    return validate_weights([float(p / total) for p in parts])


def parse_profile(text: str) -> AntennaProfile:
    try:
        counts = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise CliError(f"cannot parse profile {text!r}") from exc
    return AntennaProfile(counts)


def parse_r_list(text: str) -> tuple[float, ...]:
    values = tuple(float(_parse_fraction(tok)) for tok in text.split(",") if tok.strip())
    if not values:
        raise CliError("empty multiplexing-gain list")
    return values


def parse_snr_grid(text: str) -> tuple[float, ...]:
    """SNR grid in dB: a single value or finite ``start:stop:step`` with
    step > 0 and at most ``MAX_SNR_POINTS`` points."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"SNR grid must be 'start:stop:step', got {text!r}") from exc
    if step <= 0:
        raise CliError(f"SNR step must be > 0, got {step}")
    if stop < start:
        raise CliError(f"SNR stop {stop} below start {start}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliError(f"SNR grid must be finite, got {text!r}")
    grid = []
    while (value := start + len(grid) * step) <= stop + 1e-9:
        if len(grid) == MAX_SNR_POINTS:
            raise CliError(f"SNR grid {text!r} has more than {MAX_SNR_POINTS} points")
        grid.append(value)
    return tuple(grid)


def parse_window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"window must be 'low:high' in dB, got {text!r}")
    try:
        low, high = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise CliError(f"cannot parse window {text!r}") from exc
    if not (math.isfinite(low) and math.isfinite(high)):
        raise CliError(f"window bounds must be finite, got {text!r}")
    return low, high


def parse_tolerance(text: str, flag: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise CliError(f"{flag} must be finite and >= 0, got {text!r}")
    return tol


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _scenario(args: argparse.Namespace) -> Scenario:
    """The command's scenario; converts the integer flags of ``args`` in place."""
    for name in ("k", "m", "nt", "samples", "seed", "shards"):
        value = getattr(args, name, None)
        if value is not None:
            try:
                setattr(args, name, int(value))
            except ValueError as exc:
                raise CliError(f"--{name} expects an integer, got {value!r}") from exc
    if args.scenario is None:
        raise CliError("missing --scenario")
    if args.weights is None:
        raise CliError("missing --weights")
    weights = parse_weights(args.weights)
    if args.k is not None and args.k != len(weights):
        raise CliError(f"--k {args.k} but {len(weights)} weights given")
    profile = None if args.profile is None else parse_profile(args.profile)
    return Scenario(
        kind=args.scenario, weights=weights, n_t=args.nt, profile=profile, m=args.m
    )


def _write_output(args: argparse.Namespace, payload, csv_lines: list[str]) -> None:
    """Write ``payload`` as JSON or ``csv_lines`` as CSV, as ``--format``
    says, to ``--out`` or else stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = "\n".join(csv_lines) + "\n"
    else:
        raise CliError(f"unknown format {args.format!r}")
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc


def _scenario_m_column(scenario: Scenario) -> str:
    """The table's ``M`` column; :func:`_scenario_from_row` reads it back."""
    if scenario.kind in ("bc-zf", "bc-dpc"):
        return str(scenario.m)
    if scenario.kind == "parallel-identical":
        return str(scenario.n_t)
    return ";".join(str(n) for n in scenario.profile.n)


def cmd_curve(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    curve = curve_for_scenario(scenario)
    k = scenario.k
    steps = round(k / CURVE_RESOLUTION)
    dense = [(i * k / steps, curve.evaluate(i * k / steps)) for i in range(steps + 1)]

    payload = {
        "scenario": scenario.kind,
        "K": k,
        "M": _scenario_m_column(scenario),
        "weights": list(scenario.weights.mu),
        "corners": [[r, d] for r, d in curve.corners],
        "dense": [[r, d] for r, d in dense],
    }
    lines = ["section,r,d"]
    lines += [f"corner,{_fmt(r)},{_fmt(d)}" for r, d in curve.corners]
    lines += [f"dense,{_fmt(r)},{_fmt(d)}" for r, d in dense]
    _write_output(args, payload, lines)
    summary = " ".join(f"({r:g},{d:g})" for r, d in curve.corners)
    stream = sys.stdout if args.out else sys.stderr
    stream.write(f"corners: {summary}\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    if args.r is None:
        raise CliError("missing --r")
    if args.snr_db is None:
        raise CliError("missing --snr-db")
    m_col = _scenario_m_column(scenario)
    w_col = ";".join(_fmt(w) for w in scenario.weights.mu)
    r_values, snr_grid = parse_r_list(args.r), parse_snr_grid(args.snr_db)
    rows = []
    for i_r, r in enumerate(r_values):
        for i_db, db in enumerate(snr_grid):
            est = outage_probability(
                scenario,
                r=r,
                rho=10.0 ** (db / 10.0),
                n_samples=args.samples,
                seed=np.random.SeedSequence((args.seed, i_r, i_db)),
                shards=args.shards,
            )
            rows.append(
                {
                    "scenario": scenario.kind,
                    "K": scenario.k,
                    "M": m_col,
                    "weights": w_col,
                    "r": r,
                    "rho_db": db,
                    "n_samples": est.n_samples,
                    "n_outages": est.n_outages,
                    "p_hat": est.p_hat,
                    "ci_low": est.ci_low,
                    "ci_high": est.ci_high,
                    "seed": args.seed,
                    "shards": args.shards,
                }
            )

    lines = [CSV_COLUMNS] + [",".join(map(_csv_cell, row.values())) for row in rows]
    _write_output(args, rows, lines)
    return EXIT_OK


def _scenario_from_row(row: dict[str, str]) -> Scenario:
    """The scenario that one table row's ``scenario``, ``K``, ``M`` and
    ``weights`` columns describe."""
    kind = row["scenario"]
    weights = validate_weights([float(w) for w in row["weights"].split(";")])
    if int(row["K"]) != len(weights):
        raise CliError(f"row has K={row['K']} but {len(weights)} weights")
    if kind in ("bc-zf", "bc-dpc"):
        return Scenario(kind=kind, weights=weights, m=int(row["M"]))
    if kind == "parallel-identical":
        return Scenario(kind=kind, weights=weights, n_t=int(row["M"]))
    profile = AntennaProfile(tuple(int(n) for n in row["M"].split(";")))
    return Scenario(kind=kind, weights=weights, profile=profile)


def _read_table(path: str) -> list[dict[str, str]]:
    """The rows of a CSV or JSON simulate table; each holds every column."""
    try:
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    stripped = content.strip()
    if not stripped:
        raise CliError(f"{path} is empty")
    columns = CSV_COLUMNS.split(",")
    if stripped.startswith("["):  # json table
        rows = json.loads(stripped)
        if not all(isinstance(row, dict) and row.keys() >= set(columns) for row in rows):
            raise CliError(f"{path}: missing required columns")
        rows = [{k: str(v) for k, v in row.items()} for row in rows]
    else:
        lines = stripped.splitlines()
        if lines[0].split(",") != columns:
            raise CliError(f"{path}: unexpected columns {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != len(columns):
                raise CliError(f"{path}: malformed row {line!r}")
            rows.append(dict(zip(columns, fields)))
    if not rows:
        raise CliError(f"{path}: missing required columns")
    return rows


def cmd_fit(args: argparse.Namespace) -> int:
    rows = _read_table(args.input)
    window = parse_window(args.window)
    tol = parse_tolerance(args.tol, "--tol")
    scenario = _scenario_from_row(rows[0])
    curve = curve_for_scenario(scenario)

    by_r: dict[float, list[OutageEstimate]] = {}
    for row in rows:
        if _scenario_from_row(row) != scenario:
            raise CliError(f"{args.input}: rows describe different scenarios")
        est = OutageEstimate(
            rho=10.0 ** (float(row["rho_db"]) / 10.0),
            r=float(row["r"]),
            n_samples=int(row["n_samples"]),
            n_outages=int(row["n_outages"]),
            ci_low=float(row["ci_low"]),
            ci_high=float(row["ci_high"]),
        )
        by_r.setdefault(float(row["r"]), []).append(est)

    all_passed = True
    for r in sorted(by_r):
        try:
            fit = fit_slope(by_r[r], window)
        except DmtError as exc:
            print(f"r={r:g}: FAIL ({exc})")
            all_passed = False
            continue
        report = compare(fit, curve, r, tol=tol)
        verdict = "pass" if report.passed else "FAIL"
        dropped = f" dropped={len(fit.dropped)}" if fit.dropped else ""
        print(
            f"r={r:g}: d_hat={fit.d_hat:.4f} stderr={fit.stderr:.4f} "
            f"d_analytic={report.d_analytic:.4f} rel_err={report.rel_error:.2%} "
            f"points={fit.points_used}{dropped} verdict={verdict}"
        )
        all_passed &= report.passed
    return EXIT_OK if all_passed else EXIT_STAT_FAIL


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    mean_tol = parse_tolerance(args.mean_tol, "--mean-tol")
    var_tol = parse_tolerance(args.var_tol, "--var-tol")
    all_passed = True
    for index in range(scenario.k):
        report = validate_gain_distribution(
            scenario,
            index,
            n_samples=args.samples,
            seed=np.random.SeedSequence((args.seed, index)),
        )
        ok = report.mean_rel_err <= mean_tol and report.var_rel_err <= var_tol
        all_passed &= ok
        print(
            f"gain[{index}] ~ Gamma({report.shape},1): mean={report.mean:.4f} "
            f"(err {report.mean_rel_err:.2%}) var={report.variance:.4f} "
            f"(err {report.var_rel_err:.2%}) ks={report.ks_stat:.5f} "
            f"{'pass' if ok else 'FAIL'}"
        )
    return EXIT_OK if all_passed else EXIT_STAT_FAIL


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=SCENARIO_KINDS)
    parser.add_argument("--k", help="number of channels / users")
    parser.add_argument("--m", help="transmit antennas (broadcast kinds)")
    parser.add_argument("--nt", help="antennas per channel (parallel-identical)")
    parser.add_argument("--profile", help="comma-separated antenna counts")
    parser.add_argument("--weights", help="comma-separated weights, decimals or fractions")
    parser.add_argument("--config", help="key = value file; flags override")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (stdout if omitted)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``wdmt`` parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="wdmt",
        description="Diversity-multiplexing tradeoff curves and outage simulation "
        "for weighted parallel and broadcast fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="emit analytic DMT corner points and a dense sampling")
    _add_scenario_flags(p_curve)
    _add_output_flags(p_curve)
    p_curve.set_defaults(func=cmd_curve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo outage probability table")
    _add_scenario_flags(p_sim)
    _add_output_flags(p_sim)
    p_sim.add_argument("--r", help="comma-separated multiplexing gains")
    p_sim.add_argument(
        "--snr-db", dest="snr_db",
        help=f"SNR grid start:stop:step in dB, at most {MAX_SNR_POINTS} points",
    )
    p_sim.add_argument("--samples", default="100000", help="Monte Carlo samples per (r, SNR) point")
    p_sim.add_argument("--seed", default="0", help="base random seed")
    p_sim.add_argument("--shards", default="1", help="independent substreams per point")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit diversity slopes from a simulate table")
    p_fit.add_argument("--input", required=True, help="table written by simulate")
    p_fit.add_argument("--window", required=True, help="fit window low:high in dB")
    p_fit.add_argument("--tol", default="0.15", help="relative tolerance on d (default 0.15)")
    p_fit.set_defaults(func=cmd_fit)

    p_val = sub.add_parser("validate", help="check effective gain distributions")
    _add_scenario_flags(p_val)
    p_val.add_argument("--samples", default="100000", help="draws per gain index")
    p_val.add_argument("--seed", default="0", help="base random seed")
    p_val.add_argument("--mean-tol", dest="mean_tol", default="0.01")
    p_val.add_argument("--var-tol", dest="var_tol", default="0.03")
    p_val.set_defaults(func=cmd_validate)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            entries = _read_config_file(args.config)
            known = {a.dest for p in commands.values() for a in p._actions} - {"help"}
            if unknown := sorted(entries.keys() - known):
                raise CliError(f"{args.config}: no wdmt command has a flag {', '.join(unknown)}")
            # File entries become defaults, so flags win; keys that belong
            # to another command's flags are ignored.
            flags = vars(args).keys() - {"command", "config", "func"}
            commands[args.command].set_defaults(**{k: v for k, v in entries.items() if k in flags})
            args = parser.parse_args(argv)
        return args.func(args)
    except (DmtError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

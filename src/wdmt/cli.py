"""Command-line front end.

Subcommands: ``curve`` (analytic corner points plus a dense sampling),
``simulate`` (Monte Carlo outage table), ``fit`` (slope fit and verdict
against the analytic curve), and ``validate`` (gain distribution checks).
Exit codes: 0 success, 2 invalid input, 3 statistical failure.

Each value flag's text is converted once, by its argparse ``type``. A
look-ahead parse finds the ``key = value`` file of ``--config PATH`` (for
``curve``, ``simulate`` and ``validate``) and reads it before the main
parse, so a fault of the file is reported first, even with ``-h``. Its
entries become string defaults: argparse runs each through its flag's own
``type`` only when no flag gives that value. The parser is built once per
distinct set of entries, on first use, and later calls in the process reuse
it. A key that names no flag of any command exits 2; a key of another
command's flag is ignored. An empty list entry (``0.5,,0.5``) and an antenna
flag that the scenario kind does not use exit 2 too. Every rejection,
argparse's own (an unknown or missing flag or command) included, is one
``error:`` line; a value that its converter rejects is named by its flag.
``--scenario``, ``--weights``, ``--r`` and ``--snr-db`` are required unless
a config entry gives them, and all that are missing are named on one line. A
count flag converts by ``int``, then ``check_count`` with the library's
minimum (``--samples 0`` reads ``argument --samples: n_samples must be an
integer >= 1, got 0``). A kind's antenna flag is its ``core.ANTENNA_FIELD``
without the ``_`` (``--nt`` sets ``n_t``); a missing one is named
(``--scenario bc-zf needs --m``). ``fit`` reads and checks every row
before any verdict: a row fault, a rate above K, an (r, rho_db) point of an
earlier row, a ``p_hat`` other than n_outages / n_samples, a ``seed`` that
is not a count >= 0 or a ``shards`` that is not a count >= 1 included, exits
2 and ends with ``(FILE, row N)``.

``simulate`` draws one capacity sample per SNR point, from
``SeedSequence((seed, 0, i))`` for the i-th point, and reads every rate's
outage count off it; one ``outage_table`` call draws the whole grid, its
blocks spanning SNR points. Rows stay in r-major order; the lines of a CSV
table come from one ``%`` template, whose fixed columns are formatted once.
The rows of one SNR point share their draws: each keeps its binomial law,
and counts never fall as r grows. ``fit`` fits each rate on its own, so the
points of one fit stay independent. ``--r`` rejects a rate that repeats as a float, whose
rows would be copies of each other.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .core import (
    ANTENNA_FIELD, SCENARIO_KINDS, AntennaProfile, DmtError, Scenario, Weights, check_count,
    check_real, check_rho, check_weight_sum, check_window, validate_weights,
)
from .dmt_analytic import curve_for_scenario
# simulate calls outage_table only; outage_probability stays importable from
# here for the benchmark's tracer test (bench/test_bench.py), which looks it up
from .channel_sim import (
    OutageEstimate, outage_probability, outage_table, validate_gain_distribution,
)
from .exponent_fit import compare, fit_slope

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STAT_FAIL = 3

CSV_COLUMNS = (
    "scenario,K,M,weights,r,rho_db,n_samples,n_outages,p_hat,ci_low,ci_high,seed,shards"
)

CURVE_RESOLUTION = 0.01
MAX_SNR_POINTS = 10_000  # simulate draws one capacity sample per point


class CliError(DmtError, argparse.ArgumentTypeError):
    """Invalid command-line or config-file input. When a flag's ``type``
    converter raises it, argparse reports it as ``argument --flag: ...``."""


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose rejections raise :class:`CliError`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -10:0:5 or -0.5,1.5 is a value, not an unknown flag
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise CliError(message)


def _converter(parse):
    """``parse`` as an argparse ``type``: whatever it rejects is re-raised as
    a :class:`CliError`, so the message names the flag."""

    @functools.wraps(parse)
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ArithmeticError) as exc:
            raise CliError(str(exc)) from exc

    return convert


_FLOAT = "%.17g"  # an output float: 17 significant digits read back exactly


def _fmt(x) -> str:
    """One output field as text: a float by ``_FLOAT``, anything else
    (strings, integer counts) as ``str``."""
    return _FLOAT % x if isinstance(x, float) else str(x)


def _entries(text: str) -> list[str]:
    """The stripped entries of a comma-separated list; an empty one is an error."""
    entries = [tok.strip() for tok in text.split(",")]
    if "" in entries:
        raise CliError(f"empty entry in {text!r}")
    return entries


def _parse_fraction(token: str) -> Fraction:
    num, slash, den = token.partition("/")
    return Fraction(int(num), int(den)) if slash else Fraction(token)


@_converter
def parse_weights(text: str) -> Weights:
    """Comma-separated weights, decimals or fractions, exactly normalized.

    Fractions are kept exact through normalization, so e.g. ``3/5,2/5``
    yields float weights whose sum is exactly 1.
    """
    parts = [_parse_fraction(tok) for tok in _entries(text)]
    total = sum(parts)
    check_weight_sum(total)  # exactly, on the Fraction total
    return validate_weights([float(p / total) for p in parts])


@_converter
def parse_profile(text: str) -> AntennaProfile:
    return AntennaProfile(tuple(int(tok) for tok in _entries(text)))


@_converter
def parse_r_list(text: str) -> tuple[float, ...]:
    """Comma-separated rates, decimals or fractions, no two equal as floats:
    the rows of one SNR point share their draws, so a repeated rate would be
    a copy of another row that ``fit`` counts as a point of its own."""
    rates = tuple(float(_parse_fraction(tok)) for tok in _entries(text))
    for i, r in enumerate(rates):
        if r in rates[:i]:
            raise CliError(f"rate {r!r} repeats in {text!r}")
    return rates


def _snr_linear(db: float) -> float:
    """Linear SNR of ``db`` decibels: ``inf`` from about 3083 dB on, where the
    power overflows, and 0 at -4000 dB, where it underflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@_converter
def parse_snr_grid(text: str) -> tuple[float, ...]:
    """SNR grid in dB: a single value or finite ``start:stop:step`` with step > 0,
    at most ``MAX_SNR_POINTS`` points, each with a linear SNR that ``check_rho`` accepts."""
    parts = text.split(":")
    if len(parts) == 1:
        parts = [text, text, "1"]
    if len(parts) != 3:
        raise CliError(f"SNR grid must be 'start:stop:step', got {text!r}")
    start, stop, step = map(float, parts)
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
    for db in (grid[0], grid[-1]):  # the grid ascends, so its ends bound every point
        check_rho(_snr_linear(db))
    return tuple(grid)


def _choice(choices) -> dict:
    """The ``type`` and ``metavar`` of a flag that takes one of ``choices``.
    Unlike ``choices=``, the ``type`` also checks a config-file default, with
    argparse's own message."""

    def convert(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise CliError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return {"type": convert, "metavar": "{" + ",".join(choices) + "}"}


_KIND = _choice(SCENARIO_KINDS)  # the kind of --scenario and of a table row


@_converter
def parse_window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"window must be 'low:high' in dB, got {text!r}")
    return check_window(float(parts[0]), float(parts[1]))


@_converter
def parse_tolerance(text: str) -> float:
    return check_real("tolerance", float(text), 0.0)


def _count(name: str, minimum: int):
    """The ``type`` of a count flag: ``int``, then ``check_count`` named by the flag."""
    check = _converter(lambda value: check_count(name, value, minimum))
    # named int, so that argparse reports a non-integer as "invalid int value: 'x'"
    return functools.update_wrapper(lambda text: check(int(text)), int, ("__name__",), ())


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
    """The scenario that the command's converted flags describe."""
    if args.k is not None and args.k != len(args.weights):
        raise CliError(f"--k {args.k} but {len(args.weights)} weights given")
    flag = ANTENNA_FIELD[args.scenario].replace("_", "")  # n_t is set by --nt
    if getattr(args, flag) is None:
        raise CliError(f"--scenario {args.scenario} needs --{flag}")
    return Scenario(args.scenario, args.weights, n_t=args.nt, profile=args.profile, m=args.m)


def _write_output(args: argparse.Namespace, payload, csv_lines: list[str]) -> None:
    """Write ``payload`` as JSON or ``csv_lines`` as CSV, as ``--format``
    says, to ``--out`` or else stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join(csv_lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc


def _scenario_m_column(scenario: Scenario) -> str:
    """The table's ``M`` column: the counts of the one antenna field that the
    kind uses, joined by ``;``. :func:`_scenario_from_row` reads it back."""
    field = ANTENNA_FIELD[scenario.kind]
    counts = scenario.profile.n if field == "profile" else (getattr(scenario, field),)
    return ";".join(map(str, counts))


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
    pair = f"{_FLOAT},{_FLOAT}"
    lines = ["section,r,d"]
    lines += [("corner," + pair) % corner for corner in curve.corners]
    lines += [("dense," + pair) % point for point in dense]
    _write_output(args, payload, lines)
    summary = " ".join(f"({r:g},{d:g})" for r, d in curve.corners)
    stream = sys.stdout if args.out else sys.stderr
    stream.write(f"corners: {summary}\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    for r in args.r:  # the rates' bound is K, which no flag's converter knows
        try:
            check_real("r", r, 0.0, scenario.k)
        except DmtError as exc:
            raise CliError(f"argument --r: {exc}") from exc
    points = [(_snr_linear(db), np.random.SeedSequence((args.seed, 0, i_db)))
              for i_db, db in enumerate(args.snr_db)]
    by_snr = outage_table(scenario, args.r, points, args.samples, args.shards)
    w_col = ";".join(_fmt(w) for w in scenario.weights.mu)
    fixed = (scenario.kind, scenario.k, _scenario_m_column(scenario), w_col)
    rows = [  # the columns from r on, in r-major order
        (r, db, est.n_samples, est.n_outages, est.p_hat, est.ci_low, est.ci_high,
         args.seed, args.shards)
        for i_r, r in enumerate(args.r)
        for db, est in zip(args.snr_db, (estimates[i_r] for estimates in by_snr))
    ]
    if args.format == "json":
        columns = CSV_COLUMNS.split(",")
        _write_output(args, [dict(zip(columns, fixed + row)) for row in rows], None)
    else:  # one template per table: the fixed columns' text, then the row's conversions
        template = ",".join(map(_fmt, fixed)) + (
            f",{_FLOAT},{_FLOAT},%d,%d,{_FLOAT},{_FLOAT},{_FLOAT},%d,%d")
        _write_output(args, None, [CSV_COLUMNS] + [template % row for row in rows])
    return EXIT_OK


def _scenario_from_row(row: dict[str, str]) -> Scenario:
    """The scenario that one table row's ``scenario``, ``K``, ``M`` and
    ``weights`` columns describe."""
    kind = _KIND["type"](row["scenario"])
    weights = validate_weights([float(w) for w in row["weights"].split(";")])
    if int(row["K"]) != len(weights):
        raise CliError(f"row has K={row['K']} but {len(weights)} weights")
    field = ANTENNA_FIELD[kind]
    text = row["M"]
    value = AntennaProfile(tuple(map(int, text.split(";")))) if field == "profile" else int(text)
    return Scenario(kind, weights, **{field: value})


def _read_table(path: str) -> list[dict[str, str]]:
    """The rows of a CSV or JSON simulate table; each holds every column."""
    try:
        with open(path, encoding="utf-8") as fh:
            stripped = fh.read().strip()
        rows = json.loads(stripped) if stripped.startswith("[") else None  # json table
    except (OSError, ValueError) as exc:  # undecodable text or json included
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not stripped:
        raise CliError(f"{path} is empty")
    columns = CSV_COLUMNS.split(",")
    if rows is not None:
        if not all(isinstance(row, dict) and row.keys() >= set(columns) for row in rows):
            raise CliError(f"{path}: missing required columns")
        rows = [{k: str(v) for k, v in row.items()} for row in rows]
    else:
        lines = stripped.splitlines()
        if lines[0].split(",") != columns:
            raise CliError(f"{path}: unexpected columns {lines[0]!r}")
        rows = []
        for number, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if len(fields) != len(columns):
                raise CliError(f"malformed row {line!r} ({path}, row {number})")
            rows.append(dict(zip(columns, fields)))
    if not rows:
        raise CliError(f"{path}: missing required columns")
    return rows


def cmd_fit(args: argparse.Namespace) -> int:
    scenarios: dict[tuple[str, ...], Scenario] = {}  # by the text of a row's scenario columns
    numbers: dict[tuple[float, float], int] = {}  # row number by the parsed (r, rho_db)
    by_r: dict[float, list[OutageEstimate]] = {}
    for number, row in enumerate(_read_table(args.input), start=1):
        try:
            text = (row["scenario"], row["K"], row["M"], row["weights"])
            if text not in scenarios:
                scenarios[text] = _scenario_from_row(row)
            first = next(iter(scenarios.values()))
            if scenarios[text] != first:
                raise CliError("row describes another scenario than row 1")
            rho_db = float(row["rho_db"])
            est = OutageEstimate(
                rho=_snr_linear(rho_db),
                r=check_real("r", float(row["r"]), 0.0, first.k),
                n_samples=int(row["n_samples"]),
                n_outages=int(row["n_outages"]),
                ci_low=float(row["ci_low"]),
                ci_high=float(row["ci_high"]),
            )
            if float(row["p_hat"]) != est.p_hat:  # simulate writes p_hat losslessly
                raise CliError(f"p_hat {row['p_hat']} is not n_outages/n_samples = "
                               f"{est.n_outages}/{est.n_samples}")
            check_count("seed", int(row["seed"]), 0)
            check_count("shards", int(row["shards"]), 1)
            if (earlier := numbers.setdefault((est.r, rho_db), number)) != number:
                raise CliError(f"row repeats r={est.r:g}, rho_db={rho_db:g} of row {earlier}")
        except ValueError as exc:
            raise CliError(f"{exc} ({args.input}, row {number})") from exc
        by_r.setdefault(est.r, []).append(est)
    curve = curve_for_scenario(first)

    all_passed = True
    for r in sorted(by_r):
        try:
            fit = fit_slope(by_r[r], args.window)
        except DmtError as exc:
            print(f"r={r:g}: FAIL ({exc})")
            all_passed = False
            continue
        report = compare(fit, curve, r, tol=args.tol)
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
    all_passed = True
    for index in range(scenario.k):
        report = validate_gain_distribution(
            scenario,
            index,
            n_samples=args.samples,
            seed=np.random.SeedSequence((args.seed, index)),
        )
        ok = report.mean_rel_err <= args.mean_tol and report.var_rel_err <= args.var_tol
        all_passed &= ok
        print(
            f"gain[{index}] ~ Gamma({report.shape},1): mean={report.mean:.4f} "
            f"(err {report.mean_rel_err:.2%}) var={report.variance:.4f} "
            f"(err {report.var_rel_err:.2%}) ks={report.ks_stat:.5f} "
            f"{'pass' if ok else 'FAIL'}"
        )
    return EXIT_OK if all_passed else EXIT_STAT_FAIL


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--scenario", **_KIND, required=True)
    add("--k", type=_count("k", 1), help="number of channels / users")
    add("--m", type=_count("m", 1), help="transmit antennas (broadcast kinds)")
    add("--nt", type=_count("n_t", 1), help="antennas per channel (parallel-identical)")
    add("--profile", type=parse_profile, help="comma-separated antenna counts")
    add("--weights", type=parse_weights, required=True,
        help="comma-separated weights, decimals or fractions")
    add("--config", help="key = value file; flags override")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (stdout if omitted)")
    parser.add_argument("--format", **_choice(("csv", "json")), default="csv")


def _add_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """The parser of command ``name``."""
    return sub.add_parser(name, help=help, description=help)


@functools.lru_cache(maxsize=16)
def build_parser(entries: tuple[tuple[str, str], ...] = ()) -> tuple[
        argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``wdmt`` parser and its subparsers by command name, cached and shared:
    a caller parses with them and changes nothing. The config ``entries``, sorted
    ``(key, value)`` pairs, are each command's string defaults, and an entry
    supplies a required flag."""
    parser = _Parser(
        prog="wdmt",
        description="Diversity-multiplexing tradeoff curves and outage simulation "
        "for weighted parallel and broadcast fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = _add_command(sub, "curve", "emit analytic DMT corner points and a dense sampling")
    _add_scenario_flags(p_curve)
    _add_output_flags(p_curve)

    p_sim = _add_command(sub, "simulate", "Monte Carlo outage probability table")
    _add_scenario_flags(p_sim)
    _add_output_flags(p_sim)
    add = p_sim.add_argument
    add("--r", type=parse_r_list, required=True, help="comma-separated multiplexing gains")
    add("--snr-db", type=parse_snr_grid, required=True,
        help=f"SNR grid start:stop:step in dB, at most {MAX_SNR_POINTS} points")
    add("--samples", type=_count("n_samples", 1), default="100000",
        help="Monte Carlo samples per SNR point, shared by every r")
    add("--seed", type=_count("seed", 0), default="0", help="base random seed")
    add("--shards", type=_count("shards", 1), default="1",
        help="independent substreams per point")

    p_fit = _add_command(sub, "fit", "fit diversity slopes from a simulate table")
    add = p_fit.add_argument
    add("--input", required=True, help="table written by simulate")
    add("--window", type=parse_window, required=True, help="fit window low:high in dB")
    add("--tol", type=parse_tolerance, default="0.15",
        help="relative tolerance on d (default 0.15)")

    p_val = _add_command(sub, "validate", "check each effective gain's marginal Gamma law "
                         "(not the joint law of the gains, which sets the bc-zf exponent)")
    _add_scenario_flags(p_val)
    add = p_val.add_argument
    add("--samples", type=_count("n_samples", 2), default="100000", help="draws per gain index")
    add("--seed", type=_count("seed", 0), default="0", help="base random seed")
    add("--mean-tol", type=parse_tolerance, default="0.01")
    add("--var-tol", type=parse_tolerance, default="0.03")
    defaults = dict(entries)
    for command in sub.choices.values():
        command.set_defaults(**defaults)
        for action in command._actions:
            action.required &= action.dest not in defaults
    return parser, sub.choices


@functools.cache
def _lookahead() -> argparse.ArgumentParser:
    """A parser that knows only ``--config`` and converts nothing."""
    parser = _Parser(add_help=False)
    parser.add_argument("--config")
    return parser


def main(argv=None) -> int:
    entries = {}
    try:
        if (path := _lookahead().parse_known_args(argv)[0].config) is not None:
            entries = _read_config_file(path)
            known = {a.dest for p in build_parser()[1].values() for a in p._actions} - {"help"}
            if unknown := sorted(entries.keys() - known):
                raise CliError(f"{path}: no wdmt command has a flag {', '.join(unknown)}")
        args = build_parser(tuple(sorted(entries.items())))[0].parse_args(argv)
        # looked up per call, so that a wrapped command runs, though the parser is reused
        command = {"curve": cmd_curve, "simulate": cmd_simulate, "fit": cmd_fit,
                   "validate": cmd_validate}[args.command]
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

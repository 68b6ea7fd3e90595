"""Digest a fixed matrix of ``wdmt`` CLI runs, one row per run, to check that
the CLI's behaviour stays byte for byte the same.

Each run calls ``wdmt.cli.main`` in process, inside the current directory,
and gives one row::

    name exit-code sha256(stdout, stderr, written file)

The matrix covers ``curve``, ``simulate`` (1 and 3 shards, 40001 samples
in 5 shards, whose pieces fill three kernel blocks, and, for bc-zf at K = 2
and 3 and for bc-dpc, the cli-sweep grid of ``bench/workloads.py``: 21 SNR
points of 5000 samples in 4 shards, 105000 samples in 7 blocks that the
points straddle), ``fit``,
``validate`` and config-file runs for all four scenario kinds in CSV and
JSON, plus a set of invalid inputs (argparse's own rejections among them)
and of values that start with ``-``. It takes a few seconds. Run as a
script, it works in a temporary directory and prints a header line with the
Python, numpy and scipy versions, then the rows. ``tests/test_cli_digest.py``
compares the rows with the committed ``tests/data/cli_digest.txt``; a change
that is meant to move CLI output regenerates that file from the repository
root::

    PYTHONPATH=src python tools/cli_digest.py > tests/data/cli_digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import tempfile
from pathlib import Path

import numpy
import scipy

from wdmt.cli import main

KINDS = {
    "parallel-identical": ["--nt", "2", "--weights", "0.6,0.4"],
    "parallel-different": ["--profile", "2,1", "--weights", "0.6,0.4"],
    "bc-zf": ["--m", "3", "--weights", "0.6,0.4"],
    "bc-zf-k3": ["--m", "4", "--weights", "0.5,0.3,0.2"],
    "bc-dpc": ["--m", "3", "--weights", "3/5,2/5"],
}
SIMULATE = ["--r", "0.5,1", "--snr-db", "5:20:5", "--samples", "4000", "--seed", "7"]
# Shards of 8001 and 8000 samples: shards 0-1 and 2-3 share a block each, shard 4 has its own.
PACKED = ["--r", "1", "--snr-db", "10:20:10", "--samples", "40001", "--shards", "5"]
# 84 pieces of 1250 samples, 13 to a block: 5 of the 6 block boundaries split an SNR point.
SWEEP = ["--r", "0.5,1,1.5", "--snr-db", "0:40:2", "--samples", "5000", "--shards", "4"]
SWEEP_KINDS = ("bc-zf", "bc-zf-k3", "bc-dpc")

INVALID = {
    "weights-off-one": ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.3,0.3"],
    "empty-entry": ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,,0.5"],
    "k-vs-weights": ["curve", "--scenario", "bc-zf", "--m", "3", "--k", "3",
                     "--weights", "0.5,0.5"],
    "no-scenario": ["curve", "--m", "3", "--weights", "0.5,0.5"],
    "too-many-users": ["curve", "--scenario", "bc-dpc", "--m", "1", "--weights", "0.5,0.5"],
    "unused-antenna-flag": ["curve", "--scenario", "bc-zf", "--m", "3", "--nt", "2",
                            "--weights", "0.5,0.5"],
    "no-snr-db": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                  "--r", "1"],
    "snr-grid-parts": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                       "--r", "1", "--snr-db", "1:2"],
    "snr-overflow": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                     "--r", "1", "--snr-db", "3090"],
    "snr-3080": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                 "--r", "1", "--snr-db", "3080"],
    "snr-grid-above-bound": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights",
                             "0.5,0.5", "--r", "1", "--snr-db", "2990:3010:10"],
    "negative-seed": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                      "--r", "1", "--snr-db", "10", "--seed", "-1"],
    "rate-above-k": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                     "--r", "2.5", "--snr-db", "10", "--samples", "100"],
    "rate-above-k-after-valid": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights",
                                 "0.5,0.5", "--r", "1,2.5", "--snr-db", "10", "--samples", "100"],
    "rate-repeated": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                      "--r", "1,1.0,2/2", "--snr-db", "10", "--samples", "100"],
    "weights-overflow": ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "1e400,1"],
    "fit-missing-input": ["fit", "--input", "absent.csv", "--window", "5:20"],
    "fit-reversed-window": ["fit", "--input", "sim-bc-zf-1.csv", "--window", "20:5"],
    "fit-window-parts": ["fit", "--input", "sim-bc-zf-1.csv", "--window", "5"],
    "fit-nan-tol": ["fit", "--input", "sim-bc-zf-1.csv", "--window", "5:20", "--tol", "nan"],
    "fit-nan-window": ["fit", "--input", "sim-bc-zf-1.csv", "--window", "nan:20"],
    "fit-negative-tol": ["fit", "--input", "sim-bc-zf-1.csv", "--window", "5:20",
                         "--tol", "-0.1"],
    "validate-nan-mean-tol": ["validate", "--scenario", "bc-zf", "--m", "3",
                              "--weights", "0.5,0.5", "--mean-tol", "nan"],
    "config-no-equals": ["curve", "--config", "no-equals.cfg"],
    "config-unknown-key": ["curve", "--config", "unknown-key.cfg"],
    "config-missing": ["curve", "--config", "absent.cfg"],
    "config-format-simulate": ["simulate", "--config", "format-xml.cfg"],
    "config-empty": ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                     "--config", ""],
    "unknown-flag": ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                     "--bogus", "1"],
    "fit-without-input": ["fit", "--window", "5:20"],
    "no-command": [],
    "samples-zero": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                     "--r", "1", "--snr-db", "10", "--samples", "0"],
    "shards-zero": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                    "--r", "1", "--snr-db", "10", "--shards", "0"],
    "validate-samples-one": ["validate", "--scenario", "bc-zf", "--m", "3",
                             "--weights", "0.5,0.5", "--samples", "1"],
    "m-zero": ["curve", "--scenario", "bc-zf", "--m", "0", "--weights", "1"],
    "no-antenna-flag": ["curve", "--scenario", "bc-zf", "--weights", "0.5,0.5"],
    "fit-rate-above-k": ["fit", "--input", "rate-above-k.csv", "--window", "5:20"],
    "fit-bad-cell": ["fit", "--input", "bad-cell.csv", "--window", "5:20"],
    "fit-repeated-point": ["fit", "--input", "repeated-point.csv", "--window", "5:20"],
}
# Values that start with "-" and a digit; "snr-db" and "snr-db-equals" give one output.
NEGATIVE = {
    "snr-db": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
               "--r", "1", "--snr-db", "-10:0:5", "--samples", "4000"],
    "snr-db-equals": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                      "--r", "1", "--snr-db=-10:0:5", "--samples", "4000"],
    "weights": ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "-0.5,1.5"],
}


def header() -> str:
    """The versions that the digest depends on, as one line."""
    return (f"# python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__}")


def run(name: str, argv: list[str], out: str | None = None) -> str:
    """Run ``wdmt argv`` (writing to ``out`` if given) and return its digest row."""
    if out is not None:
        argv = [*argv, "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = Path(out).read_bytes() if out is not None and Path(out).exists() else b""
    digest = hashlib.sha256()
    for part in (stdout.getvalue().encode(), stderr.getvalue().encode(), written):
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return f"{name} {code} {digest.hexdigest()}"


def config_file(path: str, argv: list[str]) -> None:
    """Write the ``--flag value`` pairs of ``argv`` as a ``key = value`` file."""
    pairs = zip(argv[::2], argv[1::2])
    Path(path).write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in pairs))


def digest_all() -> list[str]:
    """The digest rows of the whole matrix, run in the current directory."""
    digests = []
    for kind, flags in KINDS.items():
        scenario = ["--scenario", kind.removesuffix("-k3"), *flags]
        digests.append(run(f"curve-{kind}-stderr", ["curve", *scenario]))
        for fmt in ("csv", "json"):
            digests.append(run(f"curve-{kind}-{fmt}", ["curve", *scenario, "--format", fmt],
                               f"curve-{kind}.{fmt}"))
            for shards in ("1", "3"):
                table = f"sim-{kind}-{shards}.{fmt}"
                digests.append(run(
                    f"simulate-{kind}-{shards}-{fmt}",
                    ["simulate", *scenario, *SIMULATE, "--shards", shards, "--format", fmt], table,
                ))
                digests.append(run(f"fit-{kind}-{shards}-{fmt}",
                                   ["fit", "--input", table, "--window", "5:20"]))
        digests.append(run(f"simulate-{kind}-packed", ["simulate", *scenario, *PACKED]))
        if kind in SWEEP_KINDS:
            digests.append(run(f"simulate-{kind}-sweep", ["simulate", *scenario, *SWEEP]))
        digests.append(run(f"validate-{kind}",
                           ["validate", *scenario, "--samples", "20000", "--seed", "3"]))
        for command, extra in (("curve", []), ("simulate", SIMULATE), ("validate", [])):
            config_file(f"{command}-{kind}.cfg", [*scenario, *extra])
            digests.append(run(f"config-{command}-{kind}",
                               [command, "--config", f"{command}-{kind}.cfg"],
                               None if command == "validate" else f"config-{command}-{kind}.out"))
    Path("no-equals.cfg").write_text("scenario = bc-zf\nm 3\n")
    Path("unknown-key.cfg").write_text("scenario = bc-zf\nm = 3\nweights = 0.5,0.5\nsample = 9\n")
    Path("format-xml.cfg").write_text(
        "scenario = bc-zf\nm = 3\nweights = 0.5,0.5\nr = 1\nsnr-db = 10\nsamples = 100\n"
        "format = xml\n"
    )
    # sim-bc-zf-1.csv (K = 2) with r = 2.5 in its last row, or n_samples x in its second,
    # or with its rows twice
    columns, *rows = Path("sim-bc-zf-1.csv").read_text().splitlines()
    Path("repeated-point.csv").write_text("\n".join([columns, *rows, *rows]) + "\n")
    for path, index, column, value in (("rate-above-k.csv", -1, "r", "2.5"),
                                       ("bad-cell.csv", 1, "n_samples", "x")):
        damaged = [row.split(",") for row in rows]
        damaged[index][columns.split(",").index(column)] = value
        Path(path).write_text("\n".join([columns, *map(",".join, damaged)]) + "\n")
    for name, argv in INVALID.items():
        digests.append(run(f"invalid-{name}", argv))
    for name, argv in NEGATIVE.items():
        digests.append(run(f"negative-{name}", argv))
    return digests


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            print(header(), *digest_all(), sep="\n")
        finally:
            os.chdir(here)

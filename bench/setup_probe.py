"""Set-up cost seen by a user of a fresh interpreter: import ``wdmt`` and
``wdmt.cli``, then make the first call of each public entry point on a
tiny input. Then runs the calibration kernel for ``KERNEL_S`` to measure
the machine's speed. Prints one JSON object: the set-up seconds and the
kernel's run times. ``run.py`` combines several fresh processes into
``setup_s``."""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

import wdmt  # noqa: E402
import wdmt.cli  # noqa: E402
from wdmt import (  # noqa: E402
    AntennaProfile, LpInstance, OutageEstimate, Scenario, compare, curve_for_scenario,
    fit_slope, lp_greedy, lp_grid, lp_vertex, outage_probability, validate_gain_distribution,
    validate_weights,
)

from calibration import Calibration  # noqa: E402

KERNEL_S = 0.3


def first_calls() -> None:
    w = validate_weights((0.55, 0.45))
    zf = Scenario(kind="bc-zf", weights=w, m=3)
    outage_probability(zf, 1.5, 10.0, 1000, 0)
    validate_gain_distribution(zf, 0, 1000, 0)
    profile = AntennaProfile((2, 2))
    inst = LpInstance.alpha_form(profile, w, 1.0)
    lp_vertex(inst)
    lp_grid(inst, 50)
    lp_greedy(profile, w, 1.0)
    curve = curve_for_scenario(zf)
    fit = fit_slope(
        [
            OutageEstimate(rho=10.0, r=1.0, n_samples=1000, n_outages=100, ci_low=0.08, ci_high=0.12),
            OutageEstimate(rho=100.0, r=1.0, n_samples=1000, n_outages=30, ci_low=0.02, ci_high=0.04),
        ],
        (10.0, 20.0),
    )
    compare(fit, curve, 1.0)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = wdmt.cli.main(["curve", "--scenario", "bc-zf", "--m", "3", "--k", "2", "--weights", "0.55,0.45"])
    if code != 0:
        raise SystemExit(f"wdmt curve exited {code}")


first_calls()
setup_s = time.perf_counter() - _START
calibration = Calibration()
calibration.kernel()  # warm-up, not kept
end = time.perf_counter() + KERNEL_S
while time.perf_counter() < end:
    calibration.timed()
print(json.dumps({"setup_s": setup_s, "kernel_s": calibration.seconds}))

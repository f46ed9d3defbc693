"""Operation lists of the benchmark workloads and the exact values they must
reproduce.

Every pass runs in a fresh Python process, one operation at a time (a
closed loop with one client), as the CLI does.  The workload seed is the
engine's specialization seed; the values do not depend on it, so the pins
below hold for every seed.

* ``conjecture_sweep`` -- ``verify_conjecture`` on P2, r=3, d=7, k=1..9,
  one thread, no cache: the paper's headline computation and the
  single-threaded baseline.  It loads ``hilb`` and the ``integrals``
  kernels; ``toric``, ``tautological`` and ``cache`` barely show.
* ``ambient_grid`` -- the criterion-5 grid, ``virtual_integral(P=1) ==
  quot_count`` for r in {3,4}, d in {4..7}, k in {1..4}, then
  ``universal_poly("count", k, rank_v=2)`` for k=1..3.  The time splits
  between ``tautological`` (AmbientClass arithmetic) and the brute-force
  ``toric.realize_split_model`` search; k <= 4 keeps ``hilb`` cheap.
  ``universal_poly`` at k=3 raises a held-out ``ComputationError`` in the
  engine as it stands.  It stays in the pass as a failed operation, so a
  fix shows up as one failure fewer.
* ``cli_cache`` -- ``hilbloc verify-conjecture --r 3 --d 7 --kmax 8
  --threads 2`` twice on one cache file: cold (kernel through the process
  pool, cache writes) and then warm (cache reads only).
"""

from __future__ import annotations

import json
import time
import warnings
from fractions import Fraction

WORKLOADS = ("conjecture_sweep", "ambient_grid", "cli_cache")

SWEEP_R, SWEEP_D, SWEEP_KMAX = 3, 7, 9
# quot_count = chi_theta on the (r=3, d=7) family, k = 1..9
QUOT_PINS = (36, 546, 4556, 22935, 71940, 140504, 166308, 112827, 39820)

# (r, d) -> virtual_integral(P=1) = quot_count for k = 1..4
GRID_PINS = {
    (3, 4): (15, 75, 148, 105),
    (3, 5): (21, 165, 609, 1089),
    (3, 6): (28, 315, 1835, 5956),
    (3, 7): (36, 546, 4556, 22935),
    (4, 4): (15, 42, 20, 45),
    (4, 5): (21, 111, 148, 15),
    (4, 6): (28, 235, 664, 490),
    (4, 7): (36, 435, 2115, 3906),
}
# universal_poly("count", k, rank_v=2).nonzero_terms(); k=3 has no pin
# because the engine raises there, and a returned polynomial has already
# passed the engine's own held-out checks against direct integrals.
UNIVERSAL_KS = (1, 2, 3)
UNIVERSAL_PINS = {
    1: [("c2(V)", Fraction(1))],
    2: [("c2(V)*c1(V)^2", Fraction(1, 4)),
        ("c2(V)*c1(X).c1(V)", Fraction(-1, 4))],
}

CLI_KMAX = 8
CLI_ARGS = ("verify-conjecture", "--r", "3", "--d", "7",
            "--kmax", str(CLI_KMAX), "--threads", "2")


def op_record(name: str, seconds, error: str | None = None,
              wrong: bool = False) -> dict:
    """One operation's outcome.  ``wrong`` marks a value that differs from
    its pin; an ``error`` without it is an operation that did not finish."""
    return {"op": name, "s": seconds, "error": error, "wrong": wrong}


def _op(name: str, fn) -> dict:
    """Run one operation; fn returns None, or the text of a wrong value."""
    t0 = time.perf_counter()
    try:
        mismatch = fn()
    except Exception as exc:  # any failure of the program under test
        return op_record(name, time.perf_counter() - t0,
                         f"{type(exc).__name__}: {exc}")
    return op_record(name, time.perf_counter() - t0, mismatch,
                     mismatch is not None)


def conjecture_sweep(surface, seed: int) -> dict:
    from hilbloc import integrals

    timings: dict[tuple[str, int], float] = {}

    def timed(name, fn):
        def wrapper(surface, bundle, k, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(surface, bundle, k, *args, **kwargs)
            finally:
                timings[(name, k)] = time.perf_counter() - t0
        return wrapper

    # verify_conjecture looks both names up in integrals' namespace
    saved = integrals.quot_count, integrals.chi_theta
    integrals.quot_count = timed("quot", saved[0])
    integrals.chi_theta = timed("chi", saved[1])
    t0 = time.perf_counter()
    try:
        rows = integrals.verify_conjecture(
            surface, SWEEP_R, SWEEP_D, SWEEP_KMAX, seed=seed, threads=1,
            cache=None,
        )
        crash = None
    except Exception as exc:
        rows, crash = [], f"{type(exc).__name__}: {exc}"
    finally:
        integrals.quot_count, integrals.chi_theta = saved
    pass_s = time.perf_counter() - t0

    by_k = {row.k: row for row in rows}
    ops = []
    for k, pin in enumerate(QUOT_PINS, start=1):
        row = by_k.get(k)
        for side in ("quot", "chi"):
            name, seconds = f"{side} k={k}", timings.get((side, k))
            if row is None or row.error is not None:
                error = (crash or "row missing") if row is None else row.error
                ops.append(op_record(name, seconds, error))
            elif getattr(row, side) != pin or not row.equal:
                ops.append(op_record(name, seconds,
                                     f"{getattr(row, side)} != {pin}", True))
            else:
                ops.append(op_record(name, seconds))
    # sums over k: one call at the top k spans too short a stretch of a
    # noisy machine to be a steady measure on its own
    return {
        "ops": ops,
        "pass_s": pass_s,
        "primary_s": sum(t for (side, _), t in timings.items() if side == "chi"),
        "secondary_s": sum(t for (side, _), t in timings.items() if side == "quot"),
        "info": {"chi_top_s": timings.get(("chi", SWEEP_KMAX)),
                 "quot_top_s": timings.get(("quot", SWEEP_KMAX))},
    }


def ambient_grid(surface, seed: int) -> dict:
    from hilbloc import (
        ChernData, quot_count, realize_split_model, universal_poly,
        virtual_integral,
    )
    from hilbloc.integrals import c2_for_expected_dim_zero

    virtual_s = []

    def grid_point(r, d, k, pin):
        def run():
            c2 = c2_for_expected_dim_zero(r, d, k)
            v = realize_split_model(surface, ChernData(r, (d,), c2)).dual()
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vi = virtual_integral(surface, v, None, k, seed=seed)
            virtual_s.append(time.perf_counter() - t0)
            q = quot_count(surface, v, k, seed=seed)
            return None if vi == q == pin else f"virtual {vi}, quot {q}, pin {pin}"
        return run

    def universal(k):
        def run():
            got = universal_poly("count", k, rank_v=2, seed=seed).nonzero_terms()
            want = UNIVERSAL_PINS.get(k, got)
            return None if got == want else f"{got} != {want}"
        return run

    ops = []
    t0 = time.perf_counter()
    for (r, d), pins in GRID_PINS.items():
        for k, pin in enumerate(pins, start=1):
            ops.append(_op(f"grid r={r} d={d} k={k}", grid_point(r, d, k, pin)))
    t1 = time.perf_counter()
    for k in UNIVERSAL_KS:
        ops.append(_op(f"universal_poly k={k}", universal(k)))
    t2 = time.perf_counter()
    return {"ops": ops, "pass_s": t2 - t0, "primary_s": sum(virtual_s),
            "secondary_s": t2 - t0 - sum(virtual_s),
            "info": {"grid_s": t1 - t0, "universal_s": t2 - t1}}


PASSES = {"conjecture_sweep": conjecture_sweep, "ambient_grid": ambient_grid}


def op_count(workload: str) -> int:
    """Operations in one library pass, all failed when its process crashes."""
    if workload == "conjecture_sweep":
        return 2 * SWEEP_KMAX
    return sum(map(len, GRID_PINS.values())) + len(UNIVERSAL_KS)


def check_cli(stdout: bytes, code: int) -> tuple[str | None, bool]:
    """(error text, whether a value is wrong) for one verify-conjecture run."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit code {code}, stdout is not a JSON report", False
    got = [(row.get("quot_count"), row.get("chi_theta"))
           for row in report.get("rows", [])]
    want = [(str(v), str(v)) for v in QUOT_PINS[:CLI_KMAX]]
    if got != want or report.get("all_equal") is not True:
        return f"rows {got} != {want}", True
    return (None, False) if code == 0 else (f"exit code {code}", False)

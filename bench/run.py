"""hilbloc benchmark: end-to-end timings, per-layer traces and comparisons.

Run from the root of a checkout:

    python3 bench/run.py --workload conjecture_sweep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --compare PARENT_RECORDS CHANGE_RECORDS

The workloads and their pinned outputs are described in ``workloads.py``.
A run alternates set-up probes (a fresh process that imports hilbloc and
builds P2) with passes, each in a fresh process, until ``--seconds`` is
used up (at least ``MIN_PASSES`` passes).  Every pass checks each operation's
value; the last stdout line is the JSON result.

End-to-end metrics (``--trace 0``, passes untraced):

* ``setup_s`` -- fresh process to ``import hilbloc`` plus ``make_surface``
  returning, median of the probes.
* ``pass_s`` -- one pass's operation list, set-up excluded; for
  ``cli_cache`` the cold plus the warm process wall time.
* ``primary_s`` / ``secondary_s`` -- the two parts each workload is built
  around: all ``chi_theta`` / all ``quot_count`` calls of the sweep
  (``chi_s`` / ``quot_s``); the grid's ``virtual_integral`` calls / the
  rest of the pass, which is mostly the split-model search (``virtual_s``
  / ``rest_s``); the cold / warm CLI process (``cold_s`` / ``warm_s``).
  The sweep's calls at the top k (``chi_top_s`` / ``quot_top_s``) and the
  grid's two halves (``grid_s`` / ``universal_s``) are printed as well but
  not gated: on a shared virtual machine a single call of about a second
  samples too short a stretch of its load to hold a 25% bound.
* ``peak_rss_mb`` -- largest resident set of a pass's processes.

Timings are medians over the run's samples.  The table printed above the
result line also gives the sample count and the largest sample (a run has
too few samples for any lower percentile to have ten beyond it), and
``failed_frac`` (failed or wrong operations / operations attempted), which
the result line carries as ``failed`` and ``attempted``.  ``correct`` is
false when any operation returned a value other than its pin.

``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of ``BENCHMARK.json`` (median over traced passes; see
``spans.py`` for how spans are taken) and ``trace.overhead_frac``, the
traced pass time over the untraced one, minus one.

Each run writes a record (metrics, samples, failures, git sha, Python
version, CPU count, seed and the ``src/`` line count) to ``.bench_runs/``.
``--compare A B`` reads two record files or directories, pairs runs by
seed where it can, and gives a verdict per (workload, metric) using the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 3
PROBES_PER_PASS = 3
RUN_CAP_S = 170.0  # hard stop, well inside the 180 s a run may take
ALIASES = {
    "conjecture_sweep": {"primary_s": "chi_s", "secondary_s": "quot_s"},
    "ambient_grid": {"primary_s": "virtual_s", "secondary_s": "rest_s"},
    "cli_cache": {"primary_s": "cold_s", "secondary_s": "warm_s"},
}


def _median_max(values: list[float]) -> dict:
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values)}


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: int):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.start = time.monotonic()
        self.tmp = ROOT / ".bench_runs" / f"tmp-{os.getpid()}"
        self.children = self.pass_no = 0
        self.attempted = self.failed = 0
        self.wrong = False
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, argv: list[str]) -> tuple[int, bytes, float, dict | None]:
        """Run one worker; returns (exit code, stdout, wall seconds, result)."""
        self.children += 1
        out = self.tmp / f"out-{self.children}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   HILBLOC_CACHE=str(self.tmp / f"cache-{self.pass_no}.jsonl"))
        spawned = time.monotonic()
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv[:1],
               "--spawned", repr(spawned), "--out", str(out), *argv[1:]]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, RUN_CAP_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            stderr = b"timed out"
            stdout = b""
        finally:
            # the worker's own pool processes share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        wall = time.monotonic() - spawned
        result = None
        if out.exists():
            result = json.loads(out.read_text(encoding="utf-8"))
        elif stderr:
            self.failures.append(stderr.decode(errors="replace")[-400:])
        return proc.returncode, stdout, wall, result

    def count_ops(self, ops: list[dict]) -> None:
        for op in ops:
            self.attempted += 1
            if op["error"] is not None:
                self.failed += 1
                self.wrong = self.wrong or op["wrong"]
                if len(self.failures) < 20:
                    self.failures.append(f"{op['op']}: {op['error']}")

    def library_pass(self, traced: bool) -> dict | None:
        _, _, wall, res = self.spawn(
            ["pass", "--workload", self.workload, "--seed", str(self.seed),
             "--trace", str(int(traced))])
        if res is None or "ops" not in res:
            n = workloads.op_count(self.workload)
            self.attempted += n
            self.failed += n
            return None
        self.count_ops(res["ops"])
        res["wall"] = wall
        if traced:
            res["layers"] = spans.layer_values([spans.summarize(res["trace"])])
            res["layers"].update({"cli.import_s": 0.0, "cli.main_s": 0.0,
                                  "cli.process_overhead_s": 0.0,
                                  "cache.file_bytes": 0})
            del res["trace"]
        return res

    def cli_pass(self, traced: bool) -> dict | None:
        cli_args = [*workloads.CLI_ARGS, "--seed", str(self.seed)]
        procs = []
        for phase in ("cold", "warm"):
            code, stdout, wall, res = self.spawn(
                ["cli", "--trace", str(int(traced)), "--", *cli_args])
            if res is None:
                self.count_ops([workloads.op_record(f"cli {p}", None, "worker crashed")
                                for p in ("cold", "warm")[len(procs):]])
                return None
            error, wrong = workloads.check_cli(stdout, code)
            if phase == "warm" and error is None and stdout != procs[0][0]:
                error, wrong = "warm stdout differs from cold stdout", True
            self.count_ops([workloads.op_record(f"cli {phase}", wall, error, wrong)])
            procs.append((stdout, wall, res))
        (_, cold, cold_res), (_, warm, warm_res) = procs
        res = {"pass_s": cold + warm, "primary_s": cold, "secondary_s": warm,
               "peak_rss_mb": max(cold_res["peak_rss_mb"], warm_res["peak_rss_mb"]),
               "wall": cold + warm}
        if traced:
            cache_file = self.tmp / f"cache-{self.pass_no}.jsonl"
            res["layers"] = spans.layer_values(
                [spans.summarize(r["trace"]) for r in (cold_res, warm_res)])
            # the warm run is the CLI path without the kernel
            res["layers"].update({
                "cli.import_s": warm_res["import_s"],
                "cli.main_s": warm_res["main_s"],
                "cli.process_overhead_s":
                    warm - warm_res["import_s"] - warm_res["main_s"],
                "cache.file_bytes":
                    cache_file.stat().st_size if cache_file.exists() else 0,
            })
        return res

    def execute(self) -> dict:
        self.spawn(["probe"])  # untimed: fills the bytecode cache
        setup: list[float] = []
        passes, estimate = [], 0.0
        while True:
            budget = self.seconds if len(passes) >= MIN_PASSES else RUN_CAP_S
            if passes and self.elapsed() + estimate > budget:
                break
            # probes are spread over the run, so their median does not
            # hinge on the load of one moment
            for _ in range(PROBES_PER_PASS):
                res = self.spawn(["probe"])[3]
                if res is not None:
                    setup.append(res["setup_s"])
            self.pass_no += 1
            traced = bool(self.trace) and len(passes) % 2 == 0
            if self.workload == "cli_cache":
                res = self.cli_pass(traced)
            else:
                res = self.library_pass(traced)
            passes.append(res)
            if res is not None:
                res["traced"] = traced
                estimate = max(estimate, res["wall"])
            else:
                estimate = max(estimate, self.elapsed() / len(passes))
        return {"setup": setup, "passes": [p for p in passes if p is not None]}


def end_to_end(setup: list[float], passes: list[dict]) -> dict[str, dict]:
    """Timing statistics of the untraced passes, informational ones too."""
    plain = [p for p in passes if not p["traced"]]
    samples: dict[str, list[float]] = {"setup_s": setup}
    for p in plain:
        fields = {k: p[k] for k in ("pass_s", "primary_s", "secondary_s",
                                    "peak_rss_mb")}
        for name, value in {**fields, **p.get("info", {})}.items():
            if value is not None:
                samples.setdefault(name, []).append(value)
    return {name: _median_max(v) for name, v in samples.items() if v}


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if not traced:
        return {}
    out = {name: statistics.median_low(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    if plain:
        out["trace.overhead_frac"] = (
            statistics.median(p["pass_s"] for p in traced)
            / statistics.median(p["pass_s"] for p in plain) - 1)
    return out


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"git_sha": git_sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def load_bench() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(args) -> int:
    if not (ROOT / "src" / "hilbloc" / "__init__.py").is_file():
        print(f"error: no hilbloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_bench()
    # a terminated run still kills and reaps its workers (see Run.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    run.tmp.mkdir(parents=True, exist_ok=True)
    try:
        data = run.execute()
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    stats = end_to_end(data["setup"], data["passes"])
    layers = per_layer(data["passes"])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {m["name"]: (layers.get(m["name"]) if args.trace
                          else stats.get(m["name"], {}).get("median"))
              for m in wanted}
    missing = [name for name, v in values.items() if v is None]
    if missing:
        print("error: no samples for " + ", ".join(missing), file=sys.stderr)
        for line in run.failures:
            print(line, file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **environment(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_s": run.elapsed(),
        "correct": not run.wrong, "attempted": run.attempted,
        "failed": run.failed, "failures": run.failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "timings": stats, "setup_samples": data["setup"],
        "pass_samples": [{k: v for k, v in p.items() if k not in ("ops",)}
                         for p in data["passes"]],
    }
    runs_dir = ROOT / ".bench_runs"
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(data['passes'])}  record {path.relative_to(ROOT)}")
    if args.trace:
        for m in wanted:
            print(f"  {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    else:
        aliases = ALIASES[args.workload]
        units = {m["name"]: m["unit"] for m in wanted}
        for name, s in stats.items():
            label = f"  ({aliases[name]})" if name in aliases else ""
            if name not in units:
                label = "  (not gated)"
            print(f"  {name:<12} median {s['median']:.4f} {units.get(name, 's'):<3} "
                  f"max {s['max']:.4f}  n={s['n']}{label}")
    print(f"  failed_frac  {run.failed / max(run.attempted, 1):.4f} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for line in run.failures[:5]:
        print(f"  failure: {line}")
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0



# ---------------------------------------------------------------------------
# comparing two sets of records


def _load_records(path: Path) -> dict[str, list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = {}
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[tuple[int, float]], b: list[tuple[int, float]],
            bound: float, better: str) -> tuple[str, dict]:
    """Verdict for one metric: a and b are (seed, value) per run."""
    sign = 1 if better == "lower" else -1  # positive = worse
    va, vb = [v for _, v in a], [v for _, v in b]
    ma, mb = statistics.median(va), statistics.median(vb)
    info = {"a": ma, "b": mb, "change": sign * (mb - ma) / ma}
    if len(va) < 2 or len(vb) < 2:
        return "unresolved (fewer than 2 runs a side)", info
    info["spread"] = max(_spread(va), _spread(vb))
    all_better = all(sign * (y - x) < 0 for x in va for y in vb)
    if info["spread"] > bound:
        return ("better" if all_better else "unresolved"), info
    if info["change"] > bound:
        return "worse", info
    seeds_b = dict(b)
    pairs = [(x, seeds_b[s]) for s, x in a if s in seeds_b]
    pairs = pairs or [(x, y) for x in va for y in vb]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    spread_a = _spread(va) * ma
    if wins >= 0.9 * len(pairs) and sign * (ma - mb) > spread_a:
        return "better", info
    return "within bound", info


def compare(path_a: Path, path_b: Path) -> int:
    bench = load_bench()
    runs_a, runs_b = _load_records(path_a), _load_records(path_b)
    worse = False
    print(f"{'workload':<18} {'metric':<12} {'A':>10} {'B':>10} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(runs_a) & set(runs_b)):
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [(r["seed"], r["metrics"][name]["value"]) for r in runs_a[workload]]
            b = [(r["seed"], r["metrics"][name]["value"]) for r in runs_b[workload]]
            text, info = verdict(a, b, m["bound"], m["better"])
            worse = worse or text == "worse"
            spread = f"{info['spread']:.1%}" if "spread" in info else "-"
            print(f"{workload:<18} {name:<12} {info['a']:>10.4g} {info['b']:>10.4g} "
                  f"{info['change']:>+8.1%} {spread:>7} {m['bound']:>6.0%}  {text}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

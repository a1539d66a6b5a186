"""ghostphase benchmark: closed-loop CLI requests on four scan workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time and waits for it (a closed loop).
Every request is a fresh ``ghostphase`` process, started the way the
installed console script starts it, so it pays interpreter start-up and
package import like a CLI user does.  The package runs from ``src/`` of the
checkout; there is nothing to compile.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced requests with requests run through ``perfbench/traced_cli.py`` and
prints per-layer self times, counts and the tracing overhead.  Every request's
outputs are checked; the last stdout line is the JSON result, and the line
before it holds run facts that are recorded but not gated on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
CLI_STUB = "import sys; from ghostphase.cli import main; sys.exit(main())"
SETUP_SAMPLES = 3   # before the loop; one more follows every request
REQUEST_TIMEOUT_S = 60.0
COMMON = ["--kind", "azimuthal-ring-phase", "--denoise-window", "3"]


@dataclass(frozen=True)
class Workload:
    """One request shape plus the output tolerances every request must meet.

    Exact workloads are deterministic and get 1 % on the RMSE.  The sampled
    ones get six standard deviations of the seed-to-seed spread, measured
    over 150 acquisition seeds (RMSE 0.1695 +- 0.0016, slope 0.999 +- 0.010),
    so a changed RNG stream still passes and a broken reconstruction does not.
    """

    name: str
    d: int
    extra: tuple          # CLI arguments beyond COMMON, the seeds and the paths
    rmse: tuple           # (lo, hi) for phase_rmse_rad
    slope: tuple          # (lo, hi) for azimuthal_slope
    from_files: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("hadamard-exact-d256", 256, ("--d", "256"),
             rmse=(0.00147, 0.00150), slope=(0.999, 1.001)),
    Workload("hadamard-shot-d256", 256, ("--d", "256", "--flux", "1e9"),
             rmse=(0.160, 0.180), slope=(0.94, 1.06)),
    Workload("random-exact-d32", 32, ("--d", "32", "--basis", "random"),
             rmse=(0.0314, 0.0321), slope=(1.0016, 1.0036)),
    Workload("reconstruct-files-d256", 256, ("--d", "256"),
             rmse=(0.160, 0.180), slope=(0.94, 1.06), from_files=True),
)}

END_TO_END = (("request_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("phase_rmse_rad", "rad"), ("success_rate", "ratio"))

MODULES = ("wht", "scene", "projections", "acquisition", "reconstruction",
           "analysis", "formats", "config", "cli")
SELF_TIMED = (
    "wht.fwht2", "wht.hadamard_matrix", "scene.make_object", "projections.random_basis",
    "acquisition.measure_exact", "acquisition.sample_counts",
    "reconstruction.ghost_image", "reconstruction.estimate_spectrum",
    "reconstruction.remove_artifact", "reconstruction.combine_phase", "reconstruction.denoise",
    "analysis.phase_rmse", "analysis.cross_section_horizontal",
    "analysis.cross_section_azimuthal", "analysis.azimuthal_slope",
    "formats.write_series", "formats.read_series", "formats.write_field",
    "formats.read_field", "formats.write_pgm", "config.RunConfig.dump",
    "cli.main", "cli.cmd_gen_object", "cli.cmd_acquire", "cli.cmd_reconstruct",
    "cli.cmd_analyze", "cli.cmd_pipeline",
)
CALL_COUNTED = ("wht.fwht2", "projections.random_basis")
PER_LAYER = (
    tuple((f"{name}.self_s", "s") for name in SELF_TIMED)
    + tuple((f"{name}.calls", "count") for name in CALL_COUNTED)
    + tuple((f"{module}.self_s", "s") for module in MODULES)
    + (("formats.bytes_written", "B"), ("formats.bytes_read", "B"),
       ("process.startup_s", "s"), ("process.unspanned_s", "s"),
       ("trace.request_s", "s"), ("trace.untraced_request_s", "s"),
       ("trace.overhead_s", "s"), ("trace.spans", "count"))
)


# ---------------------------------------------------------------- processes

@dataclass
class Proc:
    code: int
    wall_s: float
    maxrss_kb: int
    spawn_ns: int


def spawn(argv, cwd, stderr_path):
    """Run one child to completion; time it from spawn to exit, read its rusage."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(code, wall, usage.ru_maxrss, spawn_ns)


def cli_argv(args):
    return [sys.executable, "-c", CLI_STUB, *args]


def traced_argv(spans_path, request_id, args):
    return [sys.executable, str(TRACED_CLI), str(spans_path), request_id, "--", *args]


# ----------------------------------------------------------------- requests

def request_commands(workload, out, seed, inputs):
    """The ghostphase invocations that make up one request, in order."""
    if not workload.from_files:
        return [["pipeline", *workload.extra, *COMMON, "--seed", str(seed),
                 "--basis-seed", str(seed), "--out", str(out)]]
    return [
        ["reconstruct", *workload.extra, *COMMON, "--cos", str(inputs / "series_cos.csv"),
         "--sin", str(inputs / "series_sin.csv"), "--out", str(out)],
        ["analyze", *workload.extra, *COMMON, "--phase", str(out / "phase.gcf"),
         "--support", str(out / "support.gcf"), "--truth", str(inputs / "object.gcf"),
         "--out", str(out)],
    ]


def prepare_inputs(workload, work, seed):
    """Untimed per-run set-up: the file workload reads series sampled as in hadamard-shot-d256."""
    if not workload.from_files:
        return None
    inputs = work / "inputs"
    [args] = request_commands(WORKLOADS["hadamard-shot-d256"], inputs, seed, None)
    proc = spawn(cli_argv(args), work, work / "stderr.txt")
    if proc.code != 0:
        raise RuntimeError(f"writing the series files failed with exit code {proc.code}")
    return inputs


def disc_pixels(d):
    """Pixels of the default illumination disc (radius 0.44 d about the grid centre)."""
    c = d / 2 - 0.5
    radius = 0.44 * d
    return sum(1 for y in range(d) for x in range(d) if math.hypot(x - c, y - c) <= radius)


def read_report(path):
    report = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(": ")
        report[key] = value
    return report


def check_outputs(workload, out, codes):
    """Problems with one request's outputs; an empty list means it passed."""
    problems = [f"exit code {c}" for c in codes if c != 0]
    if problems:
        return problems, None
    manifest = out / "manifest.json"
    if manifest.exists():
        listed = json.loads(manifest.read_text())["artifacts"]
        present = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        if {a["path"] for a in listed} != present:
            problems.append("manifest does not list exactly the files written")
        for art in listed:
            path = out / art["path"]
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != art["sha256"]:
                problems.append(f"manifest digest mismatch for {art['path']}")
    elif not workload.from_files:
        problems.append("pipeline wrote no manifest.json")
    try:
        report = read_report(out / "report.txt")
        support = int(report["support_pixels"])
        rmse = float(report["phase_rmse_rad"])
        slope = float(report["azimuthal_slope"])
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"unreadable report.txt: {exc!r}"], None
    expected = disc_pixels(workload.d)
    if support != expected:
        problems.append(f"support_pixels {support} != illumination disc {expected}")
    if not workload.rmse[0] <= rmse <= workload.rmse[1]:
        problems.append(f"phase_rmse_rad {rmse} outside {workload.rmse}")
    if not workload.slope[0] <= slope <= workload.slope[1]:
        problems.append(f"azimuthal_slope {slope} outside {workload.slope}")
    return problems, rmse


@dataclass
class Result:
    wall_s: float
    maxrss_kb: int
    rmse: float
    ok: bool
    trace: Optional[dict] = None


def run_request(workload, work, k, seed, inputs, traced):
    """Send one request, wait for it, check its outputs."""
    out = work / f"req{k}"
    procs, span_files = [], []
    for i, args in enumerate(request_commands(workload, out, seed, inputs)):
        if traced:
            span_files.append(work / f"spans{k}_{i}.json")
            argv = traced_argv(span_files[-1], str(k), args)
        else:
            argv = cli_argv(args)
        procs.append(spawn(argv, work, work / "stderr.txt"))
        if procs[-1].code != 0:
            break
    problems, rmse = check_outputs(workload, out, [p.code for p in procs])
    if problems:
        stderr_tail = (work / "stderr.txt").read_text(errors="replace").splitlines()[-5:]
        print(f"request {k} failed: {'; '.join(problems)}", *stderr_tail, sep="\n", file=sys.stderr)
    trace = summarize_spans(span_files, procs) if traced and not problems else None
    shutil.rmtree(out, ignore_errors=True)
    for f in span_files:
        f.unlink(missing_ok=True)
    return Result(sum(p.wall_s for p in procs), max(p.maxrss_kb for p in procs),
                  rmse, not problems, trace)


# ------------------------------------------------------------------ tracing

def summarize_spans(span_files, procs):
    """Self times, counts and unspanned process time of one traced request."""
    self_ns, total_ns, calls = {}, {}, {}
    read = written = spans_total = startup = main_ns = 0
    for path, proc in zip(span_files, procs):
        doc = json.loads(path.read_text())
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, nread, nwritten), inner in zip(spans, child_ns):
            self_ns[name] = self_ns.get(name, 0) + (end - start - inner)
            total_ns[name] = total_ns.get(name, 0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            read += nread
            written += nwritten
        spans_total += len(spans)
        startup += doc["main_start_ns"] - proc.spawn_ns
        main_ns += doc["main_end_ns"] - doc["main_start_ns"]
    wall = sum(p.wall_s for p in procs)
    layer = {}
    for name in SELF_TIMED:
        layer[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name in CALL_COUNTED:
        layer[f"{name}.calls"] = calls.get(name, 0)
    for module in MODULES:
        layer[f"{module}.self_s"] = sum(
            ns for name, ns in self_ns.items() if name.split(".", 1)[0] == module) / 1e9
    layer.update({
        "formats.bytes_written": written, "formats.bytes_read": read,
        "process.startup_s": startup / 1e9, "process.unspanned_s": wall - main_ns / 1e9,
        "trace.request_s": wall, "trace.spans": spans_total,
    })
    layer["table"] = {name: (calls[name], total_ns[name] / 1e9, self_ns[name] / 1e9)
                      for name in calls}
    return layer


def per_layer_metrics(results):
    untraced = [r.wall_s for r in results if r.ok and r.trace is None]
    traced = [r.trace for r in results if r.ok and r.trace is not None]
    if not untraced or not traced:
        return None
    metrics = {name: (statistics.median if unit == "s" else statistics.median_low)(
                   t[name] for t in traced)
               for name, unit in PER_LAYER if name in traced[0]}
    metrics["trace.untraced_request_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.request_s"] - metrics["trace.untraced_request_s"]
    return metrics


def print_span_table(results, out):
    """Per span name: median calls, inclusive and self time, and self share of the request."""
    traced = [r.trace for r in results if r.ok and r.trace is not None]
    request = statistics.median(t["trace.request_s"] for t in traced)
    rows = []
    for name in sorted({n for t in traced for n in t["table"]}):
        cols = [statistics.median(t["table"].get(name, (0, 0.0, 0.0))[i] for t in traced)
                for i in range(3)]
        rows.append((name, *cols))
    unspanned = statistics.median(t["process.unspanned_s"] for t in traced)
    rows.append(("(outside all spans)", 1, unspanned, unspanned))
    print(f"  {'span':40s} {'calls':>6s} {'total ms':>10s} {'self ms':>10s} {'self %':>7s}", file=out)
    for name, n, total, own in sorted(rows, key=lambda r: -r[3]):
        print(f"  {name:40s} {n:6g} {total * 1e3:10.2f} {own * 1e3:10.2f} {100 * own / request:7.1f}",
              file=out)


# -------------------------------------------------------------------- facts

def import_seconds(work):
    """Wall time of one fresh ``import ghostphase.cli``: the set-up every request pays."""
    proc = spawn([sys.executable, "-c", "import ghostphase.cli"], work, work / "stderr.txt")
    if proc.code != 0:
        raise RuntimeError(f"import ghostphase.cli failed with exit code {proc.code}")
    return proc.wall_s


def run_facts(workload, seed, n_requests, walls):
    probe = ("import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']"
             "['blas']; print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    numpy_version, blas, blas_version = json.loads(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout)
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    facts = {
        "workload": workload, "seed": seed, "requests": n_requests,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy_version, "blas": f"{blas} {blas_version}",
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
        "src_lines": src_lines,
    }
    facts.update(tail_percentile(walls))
    return facts


def tail_percentile(walls):
    """The highest percentile of request_s with at least ten samples beyond it."""
    n = len(walls)
    if n <= 10:
        return {"request_s_tail": None, "request_s_samples": n}
    return {"request_s_tail": {f"p{100 * (n - 10) // n}": sorted(walls)[n - 11]},
            "request_s_samples": n}


# --------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)  # so that the cleanup below runs
    if not (SRC / "ghostphase" / "cli.py").is_file():
        print(f"error: no ghostphase sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def measure(workload, args, work):
    base_seed = args.seed * 1000
    inputs = prepare_inputs(workload, work, base_seed)
    # Warm-up request: fills the page cache and the bytecode cache; checked, not timed.
    warm = run_request(workload, work, 0, base_seed, inputs, False)
    # Import samples are spread over the run so that their median sees the
    # same machine load as the requests do.
    imports = [] if args.trace else [import_seconds(work) for _ in range(SETUP_SAMPLES)]
    results = []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < args.seconds:
        k += 1
        traced = bool(args.trace) and k % 2 == 0
        results.append(run_request(workload, work, k, base_seed + k, inputs, traced))
        if not args.trace:
            imports.append(import_seconds(work))
    attempted = len(results) + 1
    failed = sum(not r.ok for r in results) + (not warm.ok)
    ok = [r for r in results if r.ok]
    walls = [r.wall_s for r in ok if r.trace is None]
    print(json.dumps({"facts": run_facts(workload.name, args.seed, len(results), walls)}))

    if args.trace:
        layer = per_layer_metrics(results)
        if layer is None:
            print("error: no successful traced and untraced request pair", file=sys.stderr)
            return 1
        print_span_table(results, sys.stdout)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        if not ok:
            print("error: every request failed", file=sys.stderr)
            return 1
        values = {
            "request_s": statistics.median(walls),
            "setup_s": statistics.median(imports),
            "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024,
            "phase_rmse_rad": statistics.median(r.rmse for r in ok),
            "success_rate": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

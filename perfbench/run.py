"""The loopcomm benchmark: fresh `loopcomm` processes, one at a time, checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk_report --seed 1 --seconds 55 --trace 0

Workloads and their items are defined in bench_inputs.py.  Every item is a
fresh process started, one at a time, by this one benchmark process, with
PYTHONPATH pointing at the checkout's `src/`, and with a fresh temporary
working directory and HOME, so no process-level cache or on-disk state carries
over from one item to the next.  Items run in a closed loop: the next starts
when the previous one has been reaped.  Passes over the workload repeat until
--seconds have passed, and the last pass stops where the time runs out, so
every item has at least one sample and the early ones may have one more; with
--trace 1, passes repeat while another pass still fits, and every pass is
whole.  Before each pass, a set-up process (`import loopcomm` plus
`load_dataset()`) gives `setup_s`.  A process that outlives ITEM_LIMIT_S is
killed and counts as a failure.

The host is shared, and its speed drifts by a quarter and more over minutes,
which would move every time metric of a run together.  So just before each
process starts, a calibration process runs in the same directory and
environment: a fresh interpreter doing fixed work that does not touch loopcomm
(CALIBRATE).  Every end-to-end time is scaled by CAL_REF_S over the run's
median calibration wall time, so it reads in seconds at the host speed at
which that process takes CAL_REF_S.  A fresh process tracks the host's speed
as the items see it: on a 2-vCPU Intel Xeon virtual machine, over 30 s blocks
of desk_report, the median calibration time correlated 0.94 with the pass
time, where the same work timed inside this process correlated 0.44.  The
unscaled figures and the scale go to stderr; per-layer times are not scaled.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics from bench_trace.py, plus the
tracing overhead measured against untraced passes interleaved with the
traced ones.  The exit code is 0 when every output verified, 1 when one did
not, and 2 when the checkout holds no loopcomm sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import bench_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

ITEM_LIMIT_S = 20.0  # wall limit per process: it is killed and the item fails
RUN_LIMIT_S = 140.0  # no item starts after this; unstarted items of the first pass fail
MIN_SETUPS = 7
CAL_REF_S = 0.25  # CALIBRATE's typical wall time on a 2-vCPU Intel Xeon virtual machine

LAUNCH = "import sys; from loopcomm.cli import main; sys.exit(main())"  # as the `loopcomm` script
SETUP = (
    "import loopcomm.cli; from loopcomm.catalog import load_dataset; load_dataset(); "
    "print(loopcomm.__file__)"
)
# Squares a sparse polynomial twice: tuple keys, dict lookups and integer
# products, the kind of work the engine's inner loops do.
CALIBRATE = """
terms = [((i, j, k), (7 * i + 3 * j + k) % 11 - 5) for i in range(7) for j in range(7) for k in range(7)]
for _ in range(2):
    product = {}
    for (a0, a1, a2), ca in terms:
        for (b0, b1, b2), cb in terms:
            key = (a0 + b0, a1 + b1, a2 + b2)
            product[key] = product.get(key, 0) + ca * cb
    assert sum(product.values()) == sum(c for _, c in terms) ** 2
"""
SPANS = ".spans.json"  # written by bench_trace.py into the process's working directory


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: Optional[str]  # None when the output verified
    cal_s: float = 0.0  # wall time of the calibration process run just before it
    trace: Optional[dict] = None  # bench_trace.py's record, for traced processes


def child_env(home: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "LOOPCOMM_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", HOME=str(home), TMPDIR=str(home))
    return env


def run_process(cmd: list, cwd: Path, limit: float) -> tuple:
    """Run one process to completion; (wall s, cpu s, peak RSS MB, exit code or None, stdout)."""
    with open(cwd / ".stdout", "wb") as out, open(cwd / ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(cwd), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], limit)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if exited else None
    stdout = (cwd / ".stdout").read_text(encoding="utf-8", errors="replace")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, stdout


def verify_setup(code: int, out: str) -> Optional[str]:
    """A set-up process prints the loopcomm it imported, which must be the checkout's."""
    if code != 0:
        return f"set-up exit code {code}"
    if Path(out.strip()).resolve() != (SRC / "loopcomm" / "__init__.py").resolve():
        return f"loopcomm imported from {out.strip()!r}, not from {SRC}"
    return None


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline

    def run(self, launch: list, files: dict, verify, traced: bool) -> Outcome:
        """One fresh interpreter, in a fresh working directory that is also its HOME."""
        cwd = Path(tempfile.mkdtemp(dir=self.work))
        try:
            for name, text in files.items():
                (cwd / name).write_text(text, encoding="utf-8")
            cal, _, _, cal_code, _ = run_process([sys.executable, "-c", CALIBRATE], cwd, ITEM_LIMIT_S)
            wall, cpu, rss, code, stdout = run_process([sys.executable, *launch], cwd, ITEM_LIMIT_S)
            error = f"killed after {ITEM_LIMIT_S:g} s" if code is None else verify(code, stdout)
            if cal_code != 0:
                error = f"calibration exit code {cal_code}"
            trace = None
            if traced and error is None:
                trace = json.loads((cwd / SPANS).read_text(encoding="utf-8"))
            return Outcome(wall, cpu, rss, error, cal, trace)
        finally:
            shutil.rmtree(cwd, ignore_errors=True)

    def run_item(self, item: bench_inputs.Item, traced: bool) -> Outcome:
        if time.perf_counter() > self.deadline:
            return Outcome(0.0, 0.0, 0.0, "run time limit reached before start")
        launch = [str(HERE / "bench_trace.py"), SPANS] if traced else ["-c", LAUNCH]
        return self.run(launch + list(item.argv), item.files, item.verify, traced)

    def run_setup(self, traced: bool) -> Outcome:
        """A fresh interpreter that imports loopcomm and loads the catalog."""
        launch = [str(HERE / "bench_trace.py"), SPANS] if traced else ["-c", SETUP]
        return self.run(launch, {}, verify_setup, traced)

    def run_pass(self, items: list, traced: bool, stop_at: float = math.inf) -> list:
        """Outcomes of `items` in order, ending early if `stop_at` has passed."""
        outcomes = []
        for item in items:
            if time.perf_counter() > stop_at:
                break
            outcomes.append(self.run_item(item, traced))
        return outcomes


# ---------------------------------------------------------------------------
# metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def item_medians(passes: list, field: str) -> list:
    """Each item's median of `field` over the passes (lists of Outcomes, one per item).

    Medians per item keep one slow pass from moving a result; a pass's time
    is then the sum of its items' medians.  The first pass is whole; a later
    one may end early.
    """
    return [statistics.median(getattr(p[i], field) for p in passes if i < len(p)) for i in range(len(passes[0]))]


def speed_scale(outcomes: list) -> float:
    """CAL_REF_S over the median calibration time of the processes run."""
    return CAL_REF_S / statistics.median(o.cal_s for o in outcomes if o.cal_s)


def end_to_end(passes: list, setups: list, scale: float = 1.0) -> dict:
    """End-to-end metrics from untraced passes, times multiplied by `scale`.

    `item_p50_s` is the median over every item run in every whole pass,
    which is steadier than the median of per-item medians when neighbouring
    items take similar times; a pass that ended early would tilt it towards
    the first items.  `item_max_s` is the slowest item's median.
    """
    item_wall = item_medians(passes, "wall_s")
    outcomes = [o for p in passes for o in p]
    whole = [o for p in passes if len(p) == len(passes[0]) for o in p]
    ok = sum(o.error is None for o in outcomes)
    return {
        "setup_s": metric(scale * statistics.median(o.wall_s for o in setups), "s"),
        "batch_s": metric(scale * sum(item_wall), "s"),
        "item_p50_s": metric(scale * statistics.median(o.wall_s for o in whole), "s"),
        "item_max_s": metric(scale * max(item_wall), "s"),
        "cpu_s": metric(scale * sum(item_medians(passes, "cpu_s")), "s"),
        "peak_rss_mb": metric(max(item_medians(passes, "rss_mb")), "MB"),
        "verdict_ok_frac": metric(ok / len(outcomes), "frac"),
    }


# per-layer metric -> (span name, field) summed over the items of a traced pass
SPAN_METRICS = {
    "catalog.route_s": ("catalog.route", "incl_s"),
    "catalog.route_self_s": ("catalog.route", "self_s"),
    "catalog.check_self_s": ("catalog.check", "self_s"),
    "catalog.run_step_s": ("catalog.run_step", "incl_s"),
    "catalog.render_s": ("catalog.render", "incl_s"),
    "steenrod.total_op_s": ("steenrod.total_op", "incl_s"),
    "steenrod.express_symmetric_s": ("steenrod.express_symmetric", "incl_s"),
    "steenrod.tp_mul_s": ("steenrod.tp_mul", "incl_s"),
    "steenrod.torus_op_s": ("steenrod.torus_op", "incl_s"),
    "steenrod.hook_s": ("steenrod.hook", "incl_s"),
    "steenrod.suspension_s": ("steenrod.suspension", "incl_s"),
    "steenrod.criterion_s": ("steenrod.criterion", "incl_s"),
    "criteria.projective_s": ("criteria.projective", "incl_s"),
    "criteria.conclude_s": ("criteria.conclude", "incl_s"),
    "sullivan.witness_s": ("sullivan.witness", "incl_s"),
    "gradedalg.hilbert_s": ("gradedalg.hilbert", "incl_s"),
    "gradedalg.ci_s": ("gradedalg.ci", "incl_s"),
    "gradedalg.indecomposable_s": ("gradedalg.indecomposable", "incl_s"),
    "sullivan.model_s": ("sullivan.model", "incl_s"),
    "sullivan.d_squared_s": ("sullivan.d_squared", "incl_s"),
    "cli.emit_s": ("cli.emit", "incl_s"),
    "steenrod.total_op_calls": ("steenrod.total_op", "calls"),
    "steenrod.express_symmetric_calls": ("steenrod.express_symmetric", "calls"),
    "steenrod.tp_mul_calls": ("steenrod.tp_mul", "calls"),
    "gradedalg.hilbert_calls": ("gradedalg.hilbert", "calls"),
}
COUNT_METRICS = (
    "catalog.plan_steps_run",
    "catalog.plan_steps_refused",
    "steenrod.torus_terms",
    "gradedalg.hilbert_degrees",
) + tuple(
    f"steenrod.{cache}_cache_{field}"
    for cache in ("total_op", "e_product", "hook")
    for field in ("hits", "misses", "size")
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


def pass_layers(outcomes: list) -> dict:
    """Per-layer values of one traced pass: sums over its items."""
    out = {name: 0.0 if name.endswith("_s") else 0 for name in (*SPAN_METRICS, *COUNT_METRICS)}
    route_engine = 0.0
    unaccounted = 0.0
    for o in outcomes:
        spans, counts = o.trace["spans"], o.trace["counts"]
        for name, (span, field) in SPAN_METRICS.items():
            out[name] += spans.get(span, {}).get(field, 0)
        for name in COUNT_METRICS:
            out[name] += counts.get(name, 0)
        route_engine += o.trace["route_engine_s"]
        unaccounted += o.wall_s - o.trace["import_s"] - o.trace["top_s"]
    out["catalog.route_engine_s"] = route_engine
    route = out["catalog.route_s"]
    out["catalog.route_engine_frac"] = route_engine / route if route else 0.0
    out["cli.unaccounted_s"] = unaccounted
    return out


def per_layer(traced_passes: list, plain_passes: list, setups: list) -> dict:
    """Per-layer metrics: medians over traced passes and traced set-ups."""
    layers = [pass_layers(p) for p in traced_passes]
    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    traced_batch = sum(item_medians(traced_passes, "wall_s"))
    values["trace.overhead_frac"] = traced_batch / sum(item_medians(plain_passes, "wall_s")) - 1.0
    values["setup.import_s"] = statistics.median(o.trace["import_s"] for o in setups)
    values["catalog.load_s"] = statistics.median(
        o.trace["spans"].get("catalog.load", {}).get("incl_s", 0.0) for o in setups)
    values["catalog.presentations_parsed"] = statistics.median(
        o.trace["counts"].get("catalog.presentations_parsed", 0) for o in setups)
    return {name: metric(v, unit_of(name)) for name, v in sorted(values.items())}


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run set-ups and passes.

    Returns the result dict, failure lines, notes for stderr (the speed scale,
    unscaled end-to-end metrics and per-item medians), and
    the trace targets that no longer exist in the package.
    """
    items = bench_inputs.WORKLOADS[workload](seed)
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=SCRATCH))
    start = time.perf_counter()
    runner = Runner(work, start + RUN_LIMIT_S)
    try:
        warm = runner.run_setup(traced=False)  # compiles bytecode in a fresh checkout; not measured
        if warm.error:
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [f"set-up: {warm.error}"], [], []
        # One set-up per pass spreads them over the run: on a shared host the
        # speed can drift over tens of seconds, and a burst would see one speed.
        setups, plain, traced = [], [], []
        loop_start = time.perf_counter()
        stop_at = loop_start + seconds if not trace else math.inf  # traced passes stay whole
        while True:
            setups.append(runner.run_setup(traced=trace))
            plain.append(runner.run_pass(items, traced=False, stop_at=stop_at if plain else math.inf))
            if trace:
                traced.append(runner.run_pass(items, traced=True))
            elapsed = time.perf_counter() - loop_start
            if trace and elapsed + elapsed / len(plain) > seconds:
                break
            if elapsed > seconds or time.perf_counter() > runner.deadline:
                break
        while len(setups) < MIN_SETUPS and time.perf_counter() < runner.deadline:
            setups.append(runner.run_setup(traced=trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run is using it
            pass

    failures = [f"set-up: {o.error}" for o in setups if o.error]
    outcomes = [(item, o) for p in plain + traced for item, o in zip(items, p)]
    failures += [f"{item.name}: {o.error}" for item, o in outcomes if o.error]
    attempted = len(setups) + len(outcomes)
    failed = len(failures)
    correct = not failures
    scale = speed_scale(setups + [o for p in plain for o in p])
    notes = [f"speed scale {scale:.4f} (CAL_REF_S {CAL_REF_S} s over the median calibration wall time)"]
    notes += [f"unscaled {name} {m['value']:.4f} {m['unit']}" for name, m in end_to_end(plain, setups).items()]
    if not trace:
        metrics = end_to_end(plain, setups, scale)
    elif correct:
        metrics = per_layer(traced, plain, setups)
    else:
        metrics = {}  # spans of failed items are not trustworthy
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    notes += [f"item {name}: median {wall:.4f} s unscaled, {rss:.1f} MB" for name, wall, rss in
              zip((i.name for i in items), item_medians(plain, "wall_s"), item_medians(plain, "rss_mb"))]
    missing = sorted({m for o in setups + [o for p in traced for o in p] if o.trace for m in o.trace["missing"]})
    return result, failures, notes, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(bench_inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loopcomm" / "cli.py").is_file():
        print(f"error: no loopcomm sources under {SRC}", file=sys.stderr)
        return 2
    result, failures, notes, missing = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for target in missing:
        print(f"WARNING trace target {target} not found; its metrics read 0", file=sys.stderr)
    for line in notes:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

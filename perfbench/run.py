"""fpcsat benchmark: time to verdict of the fpcsat CLI on fixed workloads.

    python3 perfbench/run.py --workload php --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload

Run it from the root of an fpcsat source tree.  A workload first builds its
inputs and reference answers (``setup_s``, the median of several set-ups),
then runs its command list as sequential child processes,
``python -m fpcsat ...`` with ``--workers 1``, again and again for
``--seconds``.  Every verdict, model and CSV is checked.  The seed only
shuffles the order of the commands in each pass; the inputs are fixed and
pinned by ``pins.json``.

``--trace 0`` reports the end-to-end metrics, medians over the passes, with
times scaled to a reference machine speed that ``calibrate.py`` measures
after every command.
``--trace 1`` alternates a plain pass with a traced one, in which each command
runs under ``traced_cli.py``, and reports the time and counts of each layer.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170  # every child is killed by then; a run must end within 180 s
# set up at least MIN_SETUPS times, and more while under SETUP_MIN_S in all
MIN_SETUPS, MAX_SETUPS, SETUP_MIN_S = 3, 200, 0.5
STARTUP_PROBES = 5
# calibrate.py's median wall time on the machine that recorded the baseline
# (2-core Xeon VM, Python 3.11.7); time metrics are scaled to that speed
REFERENCE_CALIBRATION_S = 0.45
TREE_SPANS = ("tree.register", "tree.eliminate", "tree.open_fpcs")

# The end-to-end metrics, with --trace 0, and the per-layer ones, with --trace 1.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.startup_s": "s",
    "dimacs.parse_s": "s",
    "dimacs.parse_mb_per_s": "MB/s",
    "dimacs.write_result_s": "s",
    "dimacs.write_s": "s",
    "core.normalize_s": "s",
    "core.effective_clauses_s": "s",
    "solver.check_sat_s": "s",
    "solver.self_s": "s",
    "solver.order_sort_s": "s",
    "solver.canonical_literals_s": "s",
    "solver.model_from_fpc_s": "s",
    "solver.uncounted_share": "fraction",
    "solver.virtual_over_wall": "ratio",
    "tree.register_s": "s",
    "tree.eliminate_s": "s",
    "tree.open_fpcs_s": "s",
    "tree.register_calls": "count",
    "tree.eliminate_calls": "count",
    "tree.eliminate_hit_ratio": "fraction",
    "tree.work": "count",
    "tree.peak_nodes": "count",
    "tree.eliminations": "count",
    "tree.visits_per_ms": "1/ms",
    "tree.visits_per_ms_over_work_per_ms": "ratio",
    "cardinality.preprocess_s": "s",
    "cardinality.profile_s": "s",
    "instances.pigeonhole_s": "s",
    "instances.complete_minus_one_s": "s",
    "instances.random_3sat_s": "s",
    "oracle.brute_force_s": "s",
    "bench.run_family_s": "s",
    "bench.csv_s": "s",
    "bench.fit_growth_s": "s",
    "trace.overhead_share": "fraction",
}


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    killed: bool
    stdout: bytes


class Launcher:
    """Runs children through ``launcher.py``, a process that stays small."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], work: Path, deadline: float) -> Child:
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        request = {"argv": argv, "cwd": str(work), "env": {"PYTHONPATH": path},
                   "timeout": max(0.0, deadline - perf_counter())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return Child(**json.loads(reply), stdout=(work / "stdout").read_bytes())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Tally:
    """Counts the commands attempted and those whose answer was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, command, child: Child, work: Path) -> None:
        self.attempted += 1
        if child.killed:
            problem = f"killed by signal (exit {child.code})"
        else:
            problem = command.check(child.code, child.stdout)
        if problem is not None:
            self.failed += 1
            stderr = (work / "stderr").read_text(errors="replace").strip().splitlines()[-3:]
            print(f"FAIL {name}: fpcsat {' '.join(command.argv)}: {problem}"
                  f" | stderr: {' / '.join(stderr)}", file=sys.stderr)


def run_pass(launcher, name, commands, order, work, deadline, tally, traced, calibration=None):
    """Run the commands once in ``order``; return the children, in command
    order, and the span totals of a traced pass.  With a ``calibration``
    list, time calibrate.py after each command and append its wall time."""
    children, spans = [None] * len(commands), []
    for i in order:
        command = commands[i]
        if traced:
            spans_path = work / f"spans{i}.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *command.argv]
        else:
            argv = [sys.executable, "-m", "fpcsat", *command.argv]
        child = launcher.run(argv, work, deadline)
        tally.check(name, command, child, work)
        children[i] = child
        if calibration is not None:
            calibration.append(
                launcher.run([sys.executable, str(HERE / "calibrate.py")], work, deadline).wall)
        if traced and spans_path.exists():
            spans.append(json.loads(spans_path.read_text()))
    return children, spans


def layer_metrics(spans: dict, startup_s: float, overhead: float, work_per_ms: float) -> dict:
    seconds, calls, counts = spans["seconds"], spans["calls"], spans["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    tree_s = sum(seconds[s] for s in TREE_SPANS)
    check_s = seconds["solver.check_sat"]
    work = counts["tree.work"]
    visits_per_ms = ratio(work, tree_s * 1000)
    return {
        "cli.startup_s": startup_s,
        "dimacs.parse_s": seconds["dimacs.parse"],
        "dimacs.parse_mb_per_s": ratio(counts["dimacs.parse_bytes"] / 1e6, seconds["dimacs.parse"]),
        "dimacs.write_result_s": seconds["dimacs.write_result"],
        "dimacs.write_s": seconds["dimacs.write"],
        "core.normalize_s": seconds["core.normalize"],
        "core.effective_clauses_s": seconds["core.effective_clauses"],
        "solver.check_sat_s": check_s,
        "solver.self_s": spans["self_seconds"]["solver.check_sat"],
        "solver.order_sort_s": seconds["solver.order_sort"],
        "solver.canonical_literals_s": seconds["solver.canonical_literals"],
        "solver.model_from_fpc_s": seconds["solver.model_from_fpc"],
        "solver.uncounted_share": ratio(check_s - tree_s, check_s),
        "solver.virtual_over_wall": ratio(work / work_per_ms, check_s * 1000),
        "tree.register_s": seconds["tree.register"],
        "tree.eliminate_s": seconds["tree.eliminate"],
        "tree.open_fpcs_s": seconds["tree.open_fpcs"],
        "tree.register_calls": calls["tree.register"],
        "tree.eliminate_calls": calls["tree.eliminate"],
        "tree.eliminate_hit_ratio": ratio(counts["tree.eliminate_hits"], calls["tree.eliminate"]),
        "tree.work": work,
        "tree.peak_nodes": counts["tree.peak_nodes"],
        "tree.eliminations": counts["tree.eliminations"],
        "tree.visits_per_ms": visits_per_ms,
        "tree.visits_per_ms_over_work_per_ms": visits_per_ms / work_per_ms,
        "cardinality.preprocess_s": seconds["cardinality.preprocess"],
        "cardinality.profile_s": seconds["cardinality.profile"],
        "instances.pigeonhole_s": seconds["instances.pigeonhole"],
        "instances.complete_minus_one_s": seconds["instances.complete_minus_one"],
        "instances.random_3sat_s": seconds["instances.random_3sat"],
        "oracle.brute_force_s": seconds["oracle.brute_force"],
        "bench.run_family_s": seconds["bench.run_family"],
        "bench.csv_s": seconds["bench.csv"],
        "bench.fit_growth_s": seconds["bench.fit_growth"],
        "trace.overhead_share": overhead,
    }


def per_command(passes: list[list[Child]], field: str) -> list[float]:
    """The median of ``field`` for each command over the passes.

    A pass's total would take in every slow moment of a shared machine; the
    median of each command keeps the steady value.
    """
    return [statistics.median(getattr(p[i], field) for p in passes)
            for i in range(len(passes[0]))]


def run_workload(launcher, name: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Set up and measure one workload; return (metrics, tally)."""
    import workloads
    from fpcsat.bench import WORK_PER_MS
    from tracer import Tracer, merge

    work = WORK / name
    pins = json.loads((HERE / "pins.json").read_text())[name]
    tally = Tally()

    setup_times = []
    while len(setup_times) < MIN_SETUPS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < MAX_SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        setup_spans = Tracer()
        start = perf_counter()
        setup = workloads.WORKLOADS[name](work, setup_spans)
        setup_times.append(perf_counter() - start)
        if setup.digests != pins:
            wrong = sorted(k for k in setup.digests.keys() | pins.keys()
                           if setup.digests.get(k) != pins.get(k))
            raise workloads.SetupError(
                "inputs differ from pins.json: "
                + ", ".join(f"{k} is {setup.digests.get(k)}, pinned {pins.get(k)}" for k in wrong))

    # startup probes; the first one also compiles the package's bytecode
    probes = [launcher.run([sys.executable, "-c", "import fpcsat.cli"], work, deadline)
              for _ in range(STARTUP_PROBES if trace else 1)]

    commands = setup.commands
    rng = random.Random(seed)
    plain, traced, calibration = [], [], []
    start = perf_counter()
    while True:
        order = rng.sample(range(len(commands)), len(commands))
        began = perf_counter()
        plain.append(run_pass(launcher, name, commands, order, work, deadline, tally, False,
                              None if trace else calibration)[0])
        if trace:
            traced.append(run_pass(launcher, name, commands, order, work, deadline, tally, True))
        took = perf_counter() - began
        now = perf_counter()
        if now - start + took > seconds or now + took > deadline:
            break

    if not trace:
        raw = {
            "wall_s": sum(per_command(plain, "wall")),
            "cpu_s": sum(per_command(plain, "cpu")),
            "setup_s": statistics.median(setup_times),
        }
        calibration_s = statistics.median(calibration)
        speed = REFERENCE_CALIBRATION_S / calibration_s
        print(f"{name:9} raw, unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f" calibration_s={calibration_s:.6g} ({len(calibration)} samples)")
        return {
            "wall_s": raw["wall_s"] * speed,
            "cpu_s": raw["cpu_s"] * speed,
            "peak_rss_mb": max(per_command(plain, "rss_mb")),
            "setup_s": raw["setup_s"] * speed,
        }, tally

    startup_s = statistics.median(c.wall for c in probes[1:])
    overhead = (sum(per_command([children for children, _ in traced], "wall"))
                / sum(per_command(plain, "wall"))) - 1
    per_pass = [layer_metrics(merge([setup_spans.snapshot(), *spans]), startup_s, overhead, WORK_PER_MS)
                for _, spans in traced]
    return {key: statistics.median(m[key] for m in per_pass) for key in PER_LAYER}, tally


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def main(argv=None) -> int:
    if not (SRC / "fpcsat" / "cli.py").is_file():
        print(f"error: no fpcsat source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missed = workloads.self_test()
    if missed:
        print(f"error: the checks let wrong answers through: {missed}", file=sys.stderr)
        return 1

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    print("environment " + json.dumps({**environment(), "seed": args.seed,
                                       "seconds": args.seconds, "trace": args.trace}))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            with Launcher() as launcher:
                values, tally = run_workload(launcher, name, args.seed, args.seconds,
                                             bool(args.trace), perf_counter() + RUN_LIMIT_S)
        except workloads.SetupError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
            print(f"{name:9} {key:36} {value:14.6g} {units[key]}")
        print(f"{name:9} {'failed_share':36} {tally.failed / tally.attempted:14.6g}"
              f" fraction ({tally.failed} of {tally.attempted} commands)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

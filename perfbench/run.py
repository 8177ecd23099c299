"""The demazure benchmark: one workload, fresh processes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the library is taken from its ``src``).
Every job is a fresh interpreter doing the workload's whole task, one after
another (a closed loop with one client), until ``--seconds`` have passed.

``--trace 0`` runs jobs with a few set-up-only processes before the first
and after each one, and reports the end-to-end metrics of ``BENCHMARK.json``
as medians over them.
``--trace 1`` alternates an untraced and a traced job of the same shape and
reports the per-layer metrics; ``trace.overhead_ratio`` is traced wall time
over untraced wall time.

Summary lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Job results, stderr
logs and spans go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import CLI_ARGS, WORKLOADS, Workload, check_cli_output, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 4  # before the jobs, and again after each job
# Children run without the ``site`` module: the library needs nothing from
# site-packages, and .pth files of the machine would otherwise sit in set-up.
PYTHON = [sys.executable, "-S"]
# Every run must end within 180 s; a job still running near then is killed and fails.
RUN_LIMIT_S = 170.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts the jobs of one run and keeps their results."""

    def __init__(self, workload: Workload, seed: int, deadline_limit: float):
        self.workload = workload
        self.seed = seed
        self.limit = deadline_limit
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            ),
            PYTHONHASHSEED="0",
        )

    def _spawn(self, argv: list[str], stdout_path: Path) -> tuple[int, float, float, int]:
        """Run argv to completion: (exit code, spawn time, exit time, peak RSS in KiB).

        ``wait4`` reports the peak resident set of the process and of every
        child it waited for, so pool workers are included.
        """
        stderr_path = stdout_path.with_suffix(".stderr")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            spawned = now()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=out, stderr=err, start_new_session=True
            )
            timer = threading.Timer(max(1.0, self.limit - now()), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(stderr_path.read_text(errors="replace")[-2000:])
        return proc.returncode, spawned, ended, usage.ru_maxrss

    def job(self, mode: str) -> dict:
        """One fresh-process job; returns its result with ``wall_s``/``setup_s`` added.

        ``mode`` is ``cli`` (the ``mult`` command as a subprocess) or a
        ``job.py`` mode: ``setup``, ``run`` or ``trace``.  A job that exits
        nonzero or writes no result counts all of its entries as failed.
        """
        self.count += 1
        path = OUT_DIR / f"job-{self.count}.json"
        stdout_path = path.with_suffix(".stdout")
        if mode == "cli":
            argv = [*PYTHON, "-m", "demazure.cli", *CLI_ARGS, "--jobs", "2"]
            code, spawned, ended, rss = self._spawn(argv, stdout_path)
            attempted, failed = check_cli_output(
                code, stdout_path.read_bytes(), load_reference(self.workload)
            )
            result = {"attempted": attempted, "failed": failed, "phases": {},
                      "wall_s": ended - spawned}
        else:
            argv = [*PYTHON, str(BENCH_DIR / "job.py"), self.workload.name,
                    str(self.seed), str(path), mode]
            path.unlink(missing_ok=True)
            code, spawned, ended, rss = self._spawn(argv, stdout_path)
            if code == 0 and path.is_file():
                result = json.loads(path.read_text())
                result["setup_s"] = result["setup_done"] - spawned
                if mode != "setup":
                    result["wall_s"] = result["done"] - spawned
            else:
                entries = _entry_count(self.workload)
                result = {"attempted": entries, "failed": entries, "phases": {}}
        result["peak_rss_mb"] = rss / 1024
        if mode != "setup":
            self.attempted += result["attempted"]
            self.failed += result["failed"]
        return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _entry_count(workload: Workload) -> int:
    reference = load_reference(workload)
    if workload.kind == "cli":
        return len(json.loads(reference)["records"])
    return reference["attempted"]


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results if key in r)


def _repeat(step, deadline: float) -> list:
    """Call ``step`` at least once, and again while another call should end by the deadline."""
    results, took = [], []
    while True:
        start = now()
        results.append(step())
        took.append(now() - start)
        if now() + statistics.median(took) > deadline:
            return results


def run_untraced(runner: Runner, deadline: float) -> tuple[dict, list[str]]:
    # Set-up probes before the jobs and after each one, so their median
    # spans the run rather than one moment of a machine whose speed drifts.
    setups = [runner.job("setup") for _ in range(SETUP_PROBES)]
    mode = "cli" if runner.workload.kind == "cli" else "run"
    steps = _repeat(
        lambda: (runner.job(mode), [runner.job("setup") for _ in range(SETUP_PROBES)]),
        deadline,
    )
    jobs = [job for job, _ in steps]
    setups += [probe for _, probes in steps for probe in probes]
    values = {
        "setup_s": _median(setups, "setup_s"),
        "wall_s": _median(jobs, "wall_s"),
        "peak_rss_mb": _median(jobs, "peak_rss_mb"),
    }
    walls = " ".join(f"{j['wall_s']:.3f}" for j in jobs if "wall_s" in j)
    lines = [f"jobs {len(jobs)} (wall_s {walls}), set-up probes {len(setups)}"]
    for phase in jobs[0]["phases"]:
        times = [j["phases"][phase] for j in jobs if phase in j["phases"]]
        lines.append(f"  {phase}_s {statistics.median(times):.4f} s")
    return values, lines


def run_traced(runner: Runner, deadline: float) -> tuple[dict, list[str]]:
    pairs = _repeat(lambda: (runner.job("run"), runner.job("trace")), deadline)
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    layers = [t["layers"] for t in traced if "layers" in t]
    if not layers:
        raise RuntimeError("no traced job finished")
    values = {name: statistics.median_low(l[name] for l in layers) for name in layers[0]}
    values["trace.overhead_ratio"] = _median(traced, "wall_s") / _median(plain, "wall_s")
    return values, [f"job pairs (untraced, traced) {len(traced)}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "demazure" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    start = now()
    # The "build": byte-compile once, so set-up never pays for compilation.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1)
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, start + RUN_LIMIT_S)
    deadline = now() + args.seconds
    measure = run_traced if args.trace else run_untraced
    values, lines = measure(runner, deadline)

    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"python {platform.python_version()}  nproc {os.cpu_count()}"
    )
    for line in lines:
        print(line)
    for metric in metrics:
        print(f"  {metric['name']} {values[metric['name']]:.6g} {metric['unit']}")
    print(
        f"  fail_rate {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} entries)"
    )
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""patimpact pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Closed loop, one client: each set-up and each run is a fresh child process,
started only after the previous one has ended, with BLAS pinned to one
thread. A run is repeated while another one still fits in ``--seconds``
(at least one run). Set-up is repeated (``SETUPS``, ``SETUP_SECONDS``) and
its median reported.
With ``--trace 1`` one more run follows with every public patimpact function
wrapped (see ``tracer.py``); it reports the per-layer metrics instead of the
end-to-end ones. Every run's outputs are checked (see ``checks.py``); a
failed check counts the run as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it give the
environment, the artifact digests and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import CLI_SEQUENCE, WORKLOADS  # noqa: E402

# Set-up is repeated at least SETUPS times, and while the set-ups so far took
# less than SETUP_SECONDS, so that a fast set-up gets a steadier median.
SETUPS = 3
SETUP_SECONDS = 3.0
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Failure(Exception):
    """A child process or an output check failed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(PINNED_THREADS)
    return env


class Runner:
    """Starts child processes one at a time and reaps each with its rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.n = 0

    def spawn(self, args: list[str], cwd: Path) -> dict:
        """Run ``python args`` to completion; wall time, CPU, peak RSS, exit code."""
        self.n += 1
        log = self.work / f"child-{self.n}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timeout = max(1.0, self.deadline - time.monotonic())
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    proc.kill()
            finally:
                os.close(pidfd)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "log": log,
            "timed_out": not ready,
        }

    def check(self, res: dict, what: str) -> dict:
        if res["code"] != 0:
            tail = res["log"].read_text(errors="replace").splitlines()[-15:]
            reason = "timed out" if res["timed_out"] else f"exited with {res['code']}"
            raise Failure(f"{what} {reason}:\n  " + "\n  ".join(tail))
        return res


def child_script() -> str:
    return str(HERE / "child.py")


def do_setup(runner: Runner, name: str, seed: int, work: Path) -> float:
    work.mkdir(parents=True)
    res = runner.check(
        runner.spawn([child_script(), "prepare", name, str(seed), str(work)], cwd=ROOT),
        "set-up",
    )
    return res["wall_s"]


def input_digests(work: Path) -> dict[str, str]:
    out = checks.digests(work)
    if (work / "input").is_dir():
        out.update({f"input/{k}": v for k, v in checks.digests(work / "input").items()})
    return out


def do_run(runner: Runner, wl, work: Path, index: int, traced: bool) -> dict:
    """One complete run; returns its timings and where its outputs are."""
    out = f"run-{index}"
    spans_paths: list[Path] = []
    walls: dict[str, float] = {}
    if wl.mode == "inproc":
        result = work / f"{out}.result.json"
        args = [child_script(), "run", str(work), out, str(result)]
        if traced:
            spans_paths.append(work / f"{out}.spans.json")
            args.append(str(spans_paths[0]))
        res = runner.check(runner.spawn(args, cwd=ROOT), f"run {index}")
        with open(result, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        run = {"run_s": rec["run_s"], "cpu_s": rec["cpu_s"], "peak_rss_mb": rec["peak_rss_mb"]}
        error = checks.manifest_error(work / out)
        if error is not None:
            raise Failure(f"run {index}: manifest error {error}")
    else:
        (work / out).mkdir()
        cfg = str(work / "config.json")
        run = {"run_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        t0 = time.perf_counter()
        for sub in CLI_SEQUENCE:
            argv = [sub, "--config", cfg, "--out", str(work / out)]
            if traced:
                spans_paths.append(work / f"{out}.{sub}.spans.json")
                args = [child_script(), "cli", str(spans_paths[-1]), sub, "--", *argv]
            else:
                args = ["-m", "patimpact.cli", *argv]
            res = runner.check(runner.spawn(args, cwd=ROOT), f"run {index} `{sub}`")
            walls[sub] = res["wall_s"]
            run["cpu_s"] += res["cpu_s"]
            run["peak_rss_mb"] = max(run["peak_rss_mb"], res["peak_rss_mb"])
        run["run_s"] = time.perf_counter() - t0
    bad = checks.efficiency_failures(work / out)
    if bad:
        raise Failure(f"run {index}: " + "; ".join(bad[:3]))
    run.update(out=work / out, spans=spans_paths, walls=walls)
    return run


def percentile_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    text = f"median {statistics.median(xs):.4f} (n={n})"
    if n >= 11:
        text += f", p{100 * (n - 10) / n:.0f} {xs[n - 11]:.4f}"
    return text


def environment(runner: Runner, work: Path, name: str, seed: int) -> dict:
    env = {"workload": name, "seed": seed}
    env["nproc"] = os.cpu_count()
    env["cpu_model"] = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    env["platform"] = platform.platform()
    env["pinned_threads"] = PINNED_THREADS
    result = work / "env.json"
    res = runner.spawn([child_script(), "env", str(result)], cwd=ROOT)
    if res["code"] == 0:
        with open(result, "r", encoding="utf-8") as fh:
            env.update(json.load(fh))
    env["git_commit"] = env["git_dirty"] = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, check=False)
        if rev.returncode == 0:
            env["git_commit"] = rev.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    started = time.monotonic()
    base = ROOT / ".bench_work" / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    runner = Runner(base, started + DEADLINE_S)
    failures: list[str] = []
    attempted = 0
    runs: list[dict] = []
    traced_run = None
    setups: list[float] = []
    env: dict = {}
    reference = None
    try:
        env = environment(runner, base, name, seed)
        # identical preparations; the last one is used by the runs
        setup_digests = []
        while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
            work = base / f"setup-{len(setups)}"
            setups.append(do_setup(runner, name, seed, work))
            setup_digests.append(input_digests(work))
        if any(d != setup_digests[0] for d in setup_digests):
            raise Failure("set-up is not deterministic: input digests differ")

        t_loop = time.monotonic()
        while True:
            attempted += 1
            t_iter = time.monotonic()
            try:
                run = do_run(runner, wl, work, attempted - 1, traced=False)
                out_digests = checks.digests(run["out"])
                if reference is None:
                    reference = out_digests
                elif out_digests != reference:
                    raise Failure(f"run {attempted - 1}: artifacts differ from the first run")
                run["mcc_sum"] = checks.mcc_sum(run["out"])
                if seed in wl.check_mcc_seeds and not run["mcc_sum"] > 0:
                    raise Failure(f"run {attempted - 1}: sum of multiclass MCC is not > 0")
                run["se_mean"] = checks.shapley_se_mean(run["out"])
                runs.append(run)
                shutil.rmtree(run["out"])
            except Failure as exc:
                failures.append(str(exc))
                if not runs:
                    break
            now = time.monotonic()
            last = now - t_iter
            # start another run only if it is expected to end within the window,
            # leaving room for the traced run
            if now - t_loop + last > seconds or now + 2.5 * last > started + DEADLINE_S:
                break

        if trace and runs:
            attempted += 1
            try:
                traced_run = do_run(runner, wl, work, attempted - 1, traced=True)
                if checks.digests(traced_run["out"]) != reference:
                    raise Failure("traced run: artifacts differ from the untraced run")
                traced_run["spans"] = tracer.load_dumps(traced_run["spans"])
            except Failure as exc:
                failures.append(str(exc))
                traced_run = None
    except Failure as exc:
        failures.append(str(exc))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    result = {
        "workload": name,
        "env": env,
        "runs": [{k: r[k] for k in ("run_s", "cpu_s", "peak_rss_mb", "se_mean", "mcc_sum")}
                 for r in runs],
        "setups_s": setups,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": reference or {},
    }
    if runs:
        med = {k: statistics.median(r[k] for r in runs) for k in ("run_s", "cpu_s", "peak_rss_mb")}
        result["end_to_end"] = {**med, "setup_s": statistics.median(setups)}
        result["shapley_se_mean"] = runs[0]["se_mean"]
        result["mcc_sum"] = runs[0]["mcc_sum"]
    if traced_run is not None:
        result["per_layer"] = traced_metrics(traced_run, result)
    return result


def traced_metrics(traced_run: dict, result: dict) -> dict[str, float]:
    spans, counters = traced_run["spans"]
    return layers.per_layer(
        spans, counters,
        run_s=traced_run["run_s"],
        untraced_run_s=result["end_to_end"]["run_s"],
        process_walls=traced_run["walls"],
        se_mean=result["shapley_se_mean"],
    )


def result_line(result: dict, trace: bool) -> dict:
    """The one-line JSON result for one workload."""
    names = layers.METRICS if trace else END_TO_END
    values = result.get("per_layer" if trace else "end_to_end")
    ok = values is not None and result["failed"] == 0
    metrics = {
        k: {"value": (values or {}).get(k, 0.0), "unit": unit} for k, unit in names.items()
    }
    return {"correct": ok, "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": metrics}


def print_summary(result: dict) -> None:
    name = result["workload"]
    print(json.dumps({"env": result["env"]}, sort_keys=True))
    print(json.dumps({"digests": {name: result["digests"]}}, sort_keys=True))
    for msg in result["failures"]:
        print(f"[{name}] FAILED: {msg}")
    if "end_to_end" not in result:
        return
    runs = result["runs"]
    for key, unit in (("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        print(f"[{name}] {key:16s} {percentile_summary([r[key] for r in runs])} {unit}")
    print(f"[{name}] {'setup_s':16s} {percentile_summary(result['setups_s'])} s")
    print(f"[{name}] {'shapley_se_mean':16s} {result['shapley_se_mean']:.6g} prob "
          f"(deterministic per seed)")
    rate = result["failed"] / max(1, result["attempted"])
    print(f"[{name}] {'error_rate':16s} {rate:.4f} ratio "
          f"({result['failed']} of {result['attempted']} runs failed)")
    print(f"[{name}] {'mcc_sum':16s} {result['mcc_sum']:.4f} (informational)")
    for key, value in result.get("per_layer", {}).items():
        print(f"[{name}] {key:44s} {value:.6g} {layers.METRICS[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", default=None,
                        help="also write the full results (runs, env, digests) as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patimpact" / "__init__.py").is_file():
        print(f"patimpact sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(result)
        results.append(result)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_line(r, bool(args.trace)) for r in results}))
    else:
        print(json.dumps(result_line(results[0], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Work done inside one benchmark child process.

The parent (``run.py``) starts a fresh interpreter for every set-up and run,
with ``PYTHONPATH`` pointing at the checkout's ``src`` and the BLAS thread
count pinned in the environment, so numpy loads with one thread.

    python child.py prepare WORKLOAD SEED DIR
    python child.py run DIR OUT RESULT_JSON [SPANS_JSON]
    python child.py cli SPANS_JSON LABEL -- SUBCOMMAND ARGS...
    python child.py env RESULT_JSON
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def prepare(name: str, seed: int, work: Path) -> None:
    """Write the workload's config and, if it ingests, its input corpus."""
    from patimpact import cli, pipeline

    wl = workloads.WORKLOADS[name]
    obj = wl.config(seed)
    (work / "probe").mkdir(parents=True, exist_ok=True)
    # parse once here, so a config the program rejects fails during set-up
    pipeline.config_from_obj({**obj, "out_dir": "probe"}, base_dir=work)
    _write_json(work / "config.json", obj)
    if wl.input_patents:
        gen = workloads.input_generator_config(seed, wl.input_patents)
        _write_json(work / "input_config.json", gen)
        (work / gen["out_dir"]).mkdir(exist_ok=True)
        code = cli.main(["synth", "--config", str(work / "input_config.json")])
        if code != 0:
            raise SystemExit(f"input corpus generation exited with {code}")


def run(work: Path, out: str, result_path: str, spans_path: str | None) -> None:
    """One in-process pipeline run through config_from_obj + run_pipeline."""
    from patimpact import pipeline

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(work / "config.json", "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    (work / out).mkdir()
    cfg = pipeline.config_from_obj({**obj, "out_dir": out}, base_dir=work)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    error = None
    try:
        pipeline.run_pipeline(cfg)
    except Exception as exc:  # reported to the parent, which counts the failure
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.dump(spans_path, label="run")
    _write_json(result_path, {
        "run_s": run_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "error": error,
    })
    if error is not None:
        raise SystemExit(1)


def traced_cli(spans_path: str, label: str, argv: list[str]) -> int:
    """Run one patimpact CLI subcommand with the tracer installed."""
    from patimpact import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path, label=label)


def _blas_threads() -> int | None:
    """Threads OpenBLAS uses, asked from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        paths = sorted({
            line.split()[-1] for line in fh
            if "openblas" in line.lower() and ".so" in line.split()[-1]
        })
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env(result_path: str) -> None:
    """Interpreter, numpy and BLAS facts as the runs see them."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    _write_json(result_path, {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
    })


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "prepare":
        prepare(rest[0], int(rest[1]), Path(rest[2]))
    elif cmd == "run":
        run(Path(rest[0]), rest[1], rest[2], rest[3] if len(rest) > 3 else None)
    elif cmd == "cli":
        return traced_cli(rest[0], rest[1], rest[3:])
    elif cmd == "env":
        env(rest[0])
    else:
        raise SystemExit(f"unknown child command {cmd!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

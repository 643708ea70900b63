"""One benchmark pass in a fresh interpreter, so caches start cold.

Usage: worker.py <mode> <workload> <seed> <launched>

``mode`` is ``pass`` (run the workload untraced) or ``traced`` (run it
under the tracer).  ``launched`` is the parent's CLOCK_MONOTONIC reading
just before it started this process, so set-up time covers interpreter
start.  The result is one JSON object on stdout, with the environment,
which is read after the pass ends; library output is captured.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rkhsquad  # noqa: E402

READY = time.monotonic()


def environment() -> dict:
    """nproc, BLAS library and threads, versions, CPU model, thread knobs."""
    import ctypes
    import os
    import platform
    import re

    import numpy
    import scipy

    blas = []
    seen = set()
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            m = re.search(r"(/\S*openblas\S*\.so\S*)", line)
            if m and m.group(1) not in seen:
                seen.add(m.group(1))
                lib = ctypes.CDLL(m.group(1))
                entry = {"library": Path(m.group(1)).name}
                for prefix in ("scipy_openblas", "openblas"):
                    for suffix in ("64_", ""):
                        threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                        config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                        if threads is not None and "threads" not in entry:
                            threads.restype = ctypes.c_int
                            entry["threads"] = threads()
                        if config is not None and "config" not in entry:
                            config.restype = ctypes.c_char_p
                            entry["config"] = config().decode()
                blas.append(entry)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rkhsquad": rkhsquad.__version__,
        "RKHS_THREADS": os.environ.get("RKHS_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def run_ops(ops, tracer=None) -> list:
    """Run every op once, in order; an op that raises or fails its gate is
    recorded as failed and the pass goes on.  Nothing is retried."""
    from workloads import digest

    records = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            out = op.body()
        except Exception as exc:  # an op failure is data, not a crash
            seconds = time.perf_counter() - start
            records.append({"name": op.name, "seconds": seconds, "ok": False,
                            "reason": f"raised {type(exc).__name__}: {exc}", "digest": None})
            continue
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.paused = True
        try:
            reason = op.gate(out)
        except Exception as exc:
            reason = f"gate raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.paused = False
        records.append({"name": op.name, "seconds": seconds, "ok": reason is None,
                        "reason": reason, "digest": digest(out)})
    return records


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    import resource

    start = time.perf_counter()
    from workloads import BIG_OP, build

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    records = run_ops(build(workload, seed), tracer)
    pass_s = time.perf_counter() - start
    result = {
        "pass_s": pass_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
        "big_op": BIG_OP[workload],
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.read_caches()
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, tracer.counters, pass_s)
        result["spans"] = tracer.spans
    return result


def main(argv) -> int:
    import json

    mode, workload, seed, launched = argv[1], argv[2], int(argv[3]), float(argv[4])
    result = {"setup_s": READY - launched}
    result.update(run_pass(workload, seed, traced=mode == "traced"))
    result["env"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

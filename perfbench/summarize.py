"""Median and quartiles of each metric over saved runs, per workload and
trace mode, as JSON on standard output.  Reads the given result files, or
every result under ``perfbench/out``; they should all come from one commit.

    python3 perfbench/summarize.py
    python3 perfbench/summarize.py perfbench/out/babuska-seed*-trace0.json

``spread`` is the distance between the first and third quartile as a share
of the median, the figure the benchmark's bounds are compared against.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summarize(results):
    grouped = {}
    for res in results:
        ctx = res["context"]
        grouped.setdefault((ctx["workload"], "per_layer" if ctx["trace"] else "end_to_end"),
                           []).append(res)
    out = {}
    for (workload, kind), runs in sorted(grouped.items()):
        values, units = {}, {}
        for res in runs:
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        out.setdefault(workload, {})[kind] = {
            "seeds": sorted(r["context"]["seed"] for r in runs),
            "host_kernel_s": stats([r["context"]["host_kernel_s"]["median"] for r in runs
                                    if "host_kernel_s" in r["context"]]),
            "metrics": {k: dict(stats(v), unit=units[k]) for k, v in sorted(values.items())},
        }
    first = results[0]["context"]
    host = {k: first[k] for k in ("commit", "source_sha256", "nproc", "blas_threads",
                                  "python", "numpy", "scipy", "seconds")}
    return {"context": host, "workloads": out}


def main(argv):
    paths = [Path(a) for a in argv] or sorted(OUT.glob("*-trace[01].json"))
    results = [json.loads(p.read_text()) for p in paths]
    if not results:
        sys.exit(f"no results under {OUT}")
    json.dump(summarize(results), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main(sys.argv[1:])

"""multifem benchmark: time to a solution of stated accuracy, per study unit.

    python3 perfbench/run.py --workload babuska --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 40     # every workload in turn

A unit is one ``multifem.bench.run_case(CaseConfig(...))`` call, the entry
point ``multifem run`` uses, followed by a check of its error norms, dof
count and iteration count against ``reference.json``.  The loop is closed:
one process per workload runs one unit at a time, with BLAS pinned to one
thread, until the next unit would overrun ``--seconds``.  ``--seed`` is the
seed of the Krylov initial guess; perfusion has no random input.

``--trace 0`` times only the solver entry points and reports the
end-to-end metrics (medians over units).  The shared host's speed drifts
by up to half within seconds and over minutes, and a fixed Python + BLAS
kernel slows with the program, so each untraced unit's times are scaled to
a reference host speed: ``HostSampler`` times the kernel every
``SAMPLE_PERIOD_S`` during the unit, the kernel's own time is left out,
and each stretch between two samples is multiplied by ``KERNEL_REF_S``
over their mean kernel time.  The unscaled medians are printed beside
them and saved.

``--trace 1`` alternates untraced units with traced ones, which record
spans around the public calls of each multifem module (see ``layers.py``)
and run no sampler, and reports per-layer self times and exact counts.
Each run writes its context, per-unit values and, when
traced, its spans under ``perfbench/out/``.  The last line of standard
output is one JSON object; the exit code is 1 if any unit failed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, multifem and layers.py (which imports multifem) load only inside
# run_workload, after BLAS is pinned to one thread and src/ is on the path.
PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# HostSampler's kernel time on the reference host: the end-to-end times
# read as seconds on a host where the kernel takes this long.
KERNEL_REF_S = 0.003
# Samples fall between bytecodes, so a long C call (an LU factorization)
# defers the next one; 0.1 s keeps the kernel near 3% of a unit.
SAMPLE_PERIOD_S = 0.1
TIMES = ("run_s", "setup_s", "solve_s")

# Fixed inputs of each workload (all at tol 1e-10).  Why each one exists is
# in BENCHMARK.json; which layers it stresses is in layers.py's metrics.
WORKLOADS = {
    "babuska": {"case": "babuska", "n": 128, "levels": 1},
    "ds-mixed": {"case": "ds-mixed", "n": 32, "levels": 1},
    "perfusion": {"case": "perfusion", "n": 12, "levels": 2, "radius": 0.2, "n_quad": 16},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="workload to run; all of them, each in its own process, if omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# -- accuracy check ------------------------------------------------------------

def check_record(rec, ref):
    """Reasons a finished study fails its reference; empty when it passes.

    The dof count must match exactly, each error norm within ``ref["rtol"]``
    relative, and every value must be finite.  MinRes starts from a random
    guess drawn from the seed, so its iteration count moves with the seed
    (babuska gave 41-42 over seeds 0-59, ds-mixed 31-33 over seeds 0-99);
    it must stay within ``ref["iters_rtol"]`` relative."""
    problems = []
    if not rec.ok:
        problems.append("study reports ok=False")
    if len(rec.rows) != 1:
        return problems + [f"expected one result row, got {len(rec.rows)}"]
    row = rec.rows[0]
    if row["dofs_total"] != ref["dofs_total"]:
        problems.append(f"dofs_total {row['dofs_total']} != reference {ref['dofs_total']}")
    if abs(row["iters"] - ref["iters"]) > ref["iters_rtol"] * ref["iters"]:
        problems.append(f"iters {row['iters']} off reference {ref['iters']} "
                        f"by more than {ref['iters_rtol']:g} relative")
    for col, expected in ref["errors"].items():
        got = row.get(f"err_{col}")
        if got is None or not math.isfinite(got):
            problems.append(f"err_{col} is {got}")
        elif abs(got - expected) > ref["rtol"] * abs(expected):
            problems.append(f"err_{col} {got:.9g} off reference {expected:.9g} "
                            f"by more than {ref['rtol']:g} relative")
    return problems


def failed_frac(units):
    return sum(1 for u in units if u["problems"]) / len(units)


# -- context -------------------------------------------------------------------

class HostSampler:
    """Times a fixed Python + BLAS kernel, which runs no multifem code,
    from a SIGALRM handler at the start of the ``with`` block and every
    ``SAMPLE_PERIOD_S`` after; program changes leave the kernel alone, so
    only the host moves its time.  ``samples`` holds (start, seconds)."""

    def __init__(self):
        import numpy as np
        self._a = np.random.default_rng(0).standard_normal((200, 200))
        self.samples = []

    def kernel(self):
        t0 = time.perf_counter()
        for _ in range(2):
            float((self._a @ self._a).trace())
            sum(i * i for i in range(20_000))
        self.samples.append((t0, time.perf_counter() - t0))

    def unscaled(self, start, end):
        """Seconds of [start, end) less the kernel's.  The handler runs
        between bytecodes of the main thread, so a sample never straddles
        a span."""
        return end - start - sum(d for t, d in self.samples if start <= t < end)

    def seconds(self, start, end):
        """Seconds of [start, end) at reference host speed, the kernel's
        own time left out.  The stretch between two samples is scaled by
        their mean kernel time, the stretches before the first and after
        the last by that sample's."""
        s = self.samples
        starts = [-math.inf] + [t + d for t, d in s]
        ends = [t for t, _ in s] + [math.inf]
        kernel = [s[0][1]] + [(a[1] + b[1]) / 2 for a, b in zip(s, s[1:])] + [s[-1][1]]
        return sum(max(0.0, min(end, b) - max(start, a)) * KERNEL_REF_S / k
                   for a, b, k in zip(starts, ends, kernel))

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.kernel())
        signal.setitimer(signal.ITIMER_REAL, 1e-6, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def source_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def context(args, cfg):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "config": cfg,
        "commit": source_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "blas_threads": {k: os.environ[k] for k in BLAS_THREADS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- the unit loop -------------------------------------------------------------

def run_unit(uid, case, ref, full_trace):
    """One study unit, ``run_case(CaseConfig(**case))`` checked against
    ``ref``, under a fresh recorder; returns its record and the recorder."""
    import layers
    from multifem.bench import CaseConfig, run_case
    from tracing import Recorder

    rec = Recorder(uid)
    patch = layers.install(rec, full=full_trace)
    study, problems = None, []
    sampler = HostSampler()
    try:
        with contextlib.nullcontext() if full_trace else sampler:
            root = rec.open("unit")
            try:
                study = run_case(CaseConfig(**case))
                problems = check_record(study, ref)
            finally:
                rec.close(root)
    except Exception:
        problems = ["raised: " + traceback.format_exc().strip().splitlines()[-1]]
        traceback.print_exc(file=sys.stderr)
    finally:
        patch.undo()
    unit = {"id": uid, "traced": full_trace, "problems": problems}
    if study is not None:
        if full_trace:
            unit["end_to_end"] = layers.end_to_end(rec.spans, lambda start, end: end - start)
        else:
            unit["end_to_end"] = layers.end_to_end(rec.spans, sampler.seconds)
            unit["unscaled"] = layers.end_to_end(rec.spans, sampler.unscaled)
            unit["host_s"] = statistics.fmean(d for _, d in sampler.samples)
        if unit["end_to_end"] is None:
            problems.append("no solver call observed")
        elif full_trace and not problems:
            tree = layers.census(rec.operator) if rec.operator is not None else {}
            unit["layers"] = layers.layer_metrics(rec, study.rows[0]["iters"], tree)
        unit["iters"] = study.rows[0]["iters"] if study.rows else None
    for p in problems:
        print(f"unit {uid} failed: {p}", file=sys.stderr)
    return unit, rec


def run_units(args, case, ref):
    """Units until the next one would overrun ``args.seconds``; a traced run
    alternates untraced and traced units and runs at least one of each."""
    units, traced_spans = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        unit, rec = run_unit(len(units), case, ref, traced)
        units.append(unit)
        if traced:
            traced_spans.extend(rec.spans)
        elapsed = time.perf_counter() - start
        times = [u["end_to_end"]["run_s"] for u in units if u.get("end_to_end")]
        typical = statistics.median(times) if times else elapsed / len(units)
        if (len(units) >= 1 + args.trace) and elapsed + typical > args.seconds:
            return units, traced_spans


def end_to_end_metrics(timed):
    out = {k: {"value": statistics.median(u["end_to_end"][k] for u in timed), "unit": "s"}
           for k in TIMES}
    out["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return out


def layer_metrics(traced, timed, import_s):
    import layers
    values = layers.median_metrics([u["layers"] for u in traced])
    values["process.import_s"] = import_s
    untraced_run_s = statistics.median(u["unscaled"]["run_s"] for u in timed)
    values["trace.overhead"] = values["trace.run_s"] / untraced_run_s - 1.0
    units = dict(layers.UNIT_LAYER_METRICS, **layers.PROCESS_METRICS)
    return {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args):
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import multifem
    if Path(multifem.__file__).resolve().parent != ROOT / "src" / "multifem":
        sys.exit(f"perfbench: imported multifem from {multifem.__file__}, not from {ROOT / 'src'}")
    from multifem import manufactured

    if args.workload == "babuska":
        manufactured.babuska_data()
    elif args.workload == "ds-mixed":
        manufactured.darcy_stokes_data()
    import_s = time.perf_counter() - PROCESS_START

    refs = json.loads((HERE / "reference.json").read_text())
    ref = dict(refs[args.workload], rtol=refs["rtol"], iters_rtol=refs["iters_rtol"])
    case = dict(WORKLOADS[args.workload], tol=1e-10, seed=args.seed)
    ctx = context(args, case)
    units, traced_spans = run_units(args, case, ref)
    host = [u["host_s"] for u in units if "host_s" in u]
    if host:
        ctx["host_kernel_s"] = {"median": statistics.median(host), "ref": KERNEL_REF_S,
                                "min": min(host), "max": max(host)}

    failed = sum(1 for u in units if u["problems"])
    timed = [u for u in units if u.get("end_to_end") and not u["traced"]]
    traced = [u for u in units if u.get("layers")]
    ctx["units"] = {"attempted": len(units), "failed": failed,
                    "untraced": len(timed), "traced": len(traced)}
    report = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
              f"failed_frac = {failed_frac(units):.6g} ratio ({failed} of {len(units)} units)"]
    metrics = {}
    if args.trace and traced and timed:
        metrics = layer_metrics(traced, timed, import_s)
        report += [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        report.append(f"(per-layer medians over {len(traced)} traced units)")
    elif not args.trace and timed:
        metrics = end_to_end_metrics(timed)
        report += [f"{k} = {metrics[k]['value']:.6g} s at reference speed, "
                   f"{statistics.median(u['unscaled'][k] for u in timed):.6g} s unscaled "
                   f"(medians of {len(timed)} units)" for k in TIMES]
        report.append(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.6g} MB (process peak)")
        report.append(f"iters = {' '.join(sorted({str(u['iters']) for u in timed}))} count")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"context": ctx, "metrics": metrics, "units": units}, indent=1))
    if traced_spans:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "unit"], "spans": traced_spans}))

    print("context " + json.dumps(ctx))
    print("\n".join(report))
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(units),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    args = parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

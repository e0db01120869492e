"""Benchmark of the debias-forge lab: one workload, timed end to end.

    python3 perfbench/run.py --workload {cli_pipeline,shallow_grid,bias_study}
        --seed N --seconds S --trace {0,1} [--scale {default,tiny}]

Run from the root of a checkout. Each pass runs in a fresh process
(`worker.py`) with a fresh output directory, so that peak RSS is per pass and
no cached file carries over. Passes start one after another until `--seconds`
have passed: each workload is a closed loop with one caller and one pass at a
time.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
each the median over the run's passes. With `--trace 1` passes alternate
untraced and traced, and the result holds the per-layer metrics (medians over
the traced passes) and the tracing overhead.

Every artifact's sha256 is checked against `reference.json` when it holds the
seed and the numeric platform matches (datasets: same numpy version; anything
computed in floating point: same numpy, scipy, BLAS kernel and CPU features),
and against the run's first pass otherwise. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform as pyplatform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SPANS = os.path.join(ROOT, ".perfbench_spans")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("cli_pipeline", "shallow_grid", "bias_study")
# a run must end within 180 s; leave room for the summary
RUN_LIMIT_S = 170.0
# datasets are made by integer RNG draws only: their bytes depend on the numpy
# version but not on the BLAS kernel or the SIMD paths of the machine
PORTABLE_PREFIX = "data/"


def quartiles(values):
    """(q1, median, q3): inclusive quartiles, so that two or three passes
    give quartiles inside their range."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


# ---------------------------------------------------------------------------
# environment (recorded, never changed)

def _openblas_config():
    """Runtime OpenBLAS config string (names the kernel chosen for this CPU)."""
    import ctypes
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    names = [n for n in os.listdir(libs) if "openblas" in n] if os.path.isdir(libs) else []
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))
        for sym in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                    "openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def numeric_platform():
    """What decides the bytes of float results: library versions, BLAS kernel
    and the SIMD paths numpy dispatches to."""
    import numpy
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_config(),
        "cpu_features": sorted(k for k, v in __cpu_features__.items() if v),
    }


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return pyplatform.processor() or None


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    plat = numeric_platform()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": plat["numpy"],
        "scipy": plat["scipy"],
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": plat["blas"],
        **{v: os.environ.get(v) for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": _cpu_model(),
        "loadavg_at_start": _loadavg(),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# passes

def run_pass(args, index, trace, deadline):
    out_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--trace", str(trace),
           "--out-dir", out_dir]
    if trace:
        cmd += ["--spans", os.path.join(SPANS, f"{args.workload}-seed{args.seed}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"trace": trace, "crash": "pass timed out"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    ended = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"trace": trace, "crash": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    result["trace"] = trace
    result["setup_s"] = result["region_start"] - started
    result["pass_s"] = ended - started
    return result


def run_passes(args):
    """Start passes while fewer than --seconds have passed (in a traced run,
    alternating untraced and traced, and at least one of each); stop early
    if the next pass could not end before the run's time limit."""
    os.makedirs(WORK, exist_ok=True)
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        trace = args.trace and len(passes) % 2 == 1
        passes.append(run_pass(args, len(passes), int(trace), deadline))
        if "crash" in passes[-1]:
            break
        now = time.monotonic()
        longest = max(p["pass_s"] for p in passes)
        need_more = args.trace and len(passes) < 2
        if now + longest > deadline or (now - start >= args.seconds and not need_more):
            break
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return passes


# ---------------------------------------------------------------------------
# checks

def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def applicable_digests(reference, workload, seed):
    """(reference digests of this run, scope): scope "all" when the numeric
    platform matches the reference's, "datasets" when only numpy does, None
    when no reference applies."""
    digests = reference.get("digests", {}).get(workload, {}).get(str(seed))
    ref_plat = reference.get("platform")
    if digests is None or ref_plat is None:
        return None, None
    here = numeric_platform()
    if ref_plat == here:
        return digests, "all"
    if ref_plat["numpy"] == here["numpy"]:
        return digests, "datasets"
    return None, None


def check(passes, ref_digests=None, scope=None):
    """Count attempted and failed operations over all passes; each artifact
    is an operation too, checked against the reference where `scope` allows
    and against the first pass otherwise. Returns (attempted, failed, lines)."""
    lines = []
    if scope is None:
        lines.append("digests: no reference applies; checked across passes only")
    elif scope == "datasets":
        lines.append("digests: reference made on another numeric platform; "
                     "datasets checked against it, the rest across passes only")
    attempted = failed = 0
    first = None
    for i, p in enumerate(passes):
        if "crash" in p:
            attempted += 1
            failed += 1
            lines.append(f"pass {i}: {p['crash']}")
            continue
        attempted += p["attempted"]
        failed += p["failed"]
        lines.extend(f"pass {i}: {e}" for e in p["errors"])
        if p["failed"]:
            continue
        for name in ("anti_acc", "orig_acc"):
            if not 0.0 < p.get(name, -1.0) <= 1.0:
                attempted += 1
                failed += 1
                lines.append(f"pass {i}: {name} missing or out of (0, 1]: {p.get(name)}")
        digests = p["digests"]
        if first is None:
            first = digests
        names = set(digests) | set(first) | set(ref_digests if scope == "all" else ())
        for name in sorted(names):
            attempted += 1
            got = digests.get(name)
            if scope == "all" or (scope == "datasets" and name.startswith(PORTABLE_PREFIX)):
                want, source = ref_digests.get(name), "reference"
            else:
                want, source = first.get(name), "first pass"
            if got is None or got != want:
                failed += 1
                lines.append(f"pass {i}: artifact {name}: sha256 {got} != {source} {want}")
    if first is not None and scope != "all":
        lines.extend(f"digest {name} {d}" for name, d in sorted(first.items()))
    return attempted, failed, lines


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes):
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "anti_acc": [p["anti_acc"] for p in passes if "anti_acc" in p],
        "orig_acc": [p["orig_acc"] for p in passes if "orig_acc" in p],
    }


def per_layer(passes):
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    series = {name: [p["layers"][name] for p in traced] for name in traced[0]["layers"]}
    series["proc.cpu_util"] = [p["cpu_s"] / p["wall_s"] for p in traced]
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    series["trace.overhead_s"] = [overhead]
    return series


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("default", "tiny"), default="default")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "debias_forge")):
        print(f"perfbench: {ROOT} holds no src/debias_forge to benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    passes = run_passes(args)
    ref_digests, scope = (applicable_digests(load_reference(), args.workload, args.seed)
                          if args.scale == "default" else (None, None))
    attempted, failed, lines = check(passes, ref_digests, scope)
    for line in lines:
        print(line)
    ok = [p for p in passes if "crash" not in p]
    metrics = {}
    if ok and (not args.trace or any(p["trace"] for p in ok) and any(not p["trace"] for p in ok)):
        series = per_layer(ok) if args.trace else end_to_end(ok)
        for m in declared:
            values = series.get(m["name"])
            if not values:
                print(f"metric {m['name']}: not measured", file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            q1, med, q3 = quartiles(values)
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            print(f"{m['name']:40s} {med:.6g} {m['unit']}  (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})")
    else:
        attempted += 1
        failed += 1
    print(f"{'failed_ratio':40s} {failed / attempted:.6g} ratio  ({failed} failed of {attempted})")
    print(f"{args.workload} seed {args.seed}: {len(ok)} passes")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

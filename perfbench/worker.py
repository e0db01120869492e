"""One pass of one workload, in a fresh process; prints its result as one
JSON line. `run.py` starts one of these per pass, so that every pass has its
own peak RSS and no state (such as a cached conf_reg teacher) carries over.

    python3 perfbench/worker.py --workload NAME --seed N --out-dir DIR \
        [--scale default|tiny] [--trace 0|1] [--spans FILE]

The timed region is `workload.run()`. Set-up (imports, building inputs)
happens before it; the parent measures set-up from the moment it started
this process to the `region_start` reported here (both CLOCK_MONOTONIC).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def one_pass(workload, seed, scale, out_dir, trace, spans_path=None):
    import workloads

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    os.makedirs(out_dir)
    try:
        wl = workloads.WORKLOADS[workload](seed, scale, out_dir)
        cpu0 = time.process_time()
        region_start = time.monotonic()
        if tracer:
            tracer.active = True
        outcome = wl.run()
        wall = time.monotonic() - region_start
        if tracer:
            tracer.active = False
        cpu = time.process_time() - cpu0
        result = {
            "region_start": region_start,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digests": {},
        }
        if not outcome.errors:
            artifacts = outcome.call("hash artifacts", wl.artifacts) or {}
            result["digests"] = {name: sha256_file(path) for name, path in sorted(artifacts.items())}
            accs = outcome.call("score models", wl.accuracies)
            if accs is not None:
                result["anti_acc"], result["orig_acc"] = accs
        if tracer:
            result["layers"] = tracer.layer_metrics()
            if spans_path:
                tracer.dump(spans_path)
        result["attempted"] = outcome.attempted
        result["failed"] = outcome.failed
        result["errors"] = outcome.errors
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="default")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--spans", default=None, help="write the spans of a traced pass here")
    args = p.parse_args(argv)
    result = one_pass(args.workload, args.seed, args.scale, args.out_dir,
                      args.trace, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write perfbench/reference.json: the golden digests, exact counts and
baseline medians that run.py checks against and later changes cite.

    python3 perfbench/record.py digests --seeds 0 1 2 ...
    python3 perfbench/record.py counts
    python3 perfbench/record.py baseline OUTPUT_FILE...

`digests` makes one untraced pass per workload and seed and records every
artifact's sha256 with the numeric platform it was made on. `counts` makes
one traced pass per workload at seed 0 and records the counts that repeat
exactly. `baseline` reads saved stdout of `run.py --trace 0` runs and records,
per workload and end-to-end metric, the median, quartiles and number of the
runs' values, with the environment of the machine recording it. Run it only for a declared change of output bytes or of the
benchmark, never to make a failing check pass.
"""

import argparse
import json
import os
import subprocess
import sys

import run

COUNTS = [
    "classifier.featurize.rows", "classifier.featurize.unique_ratio",
    "classifier.forward.rows", "classifier.loss_and_grad.calls",
    "classifier.opt_step.calls", "objectives.build_targets.calls",
    "trainer.steps", "trainer.train_teacher.calls", "shallow.grid_cells",
    "synthgen.examples", "synthgen.io_bytes", "classifier.checkpoint_bytes",
]


def one_pass(workload, seed, trace):
    out_dir = os.path.join(run.WORK, f"record-{workload}-{seed}")
    os.makedirs(run.WORK, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--out-dir", out_dir],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['errors']}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("digests").add_argument("--seeds", type=int, nargs="+", default=[0])
    sub.add_parser("counts")
    sub.add_parser("baseline").add_argument("outputs", nargs="+")
    args = ap.parse_args(argv)
    ref = run.load_reference()

    if args.what == "digests":
        platform = run.numeric_platform()
        if ref.get("platform") not in (None, platform):
            ref["digests"] = {}  # digests of another platform do not mix with these
        ref["platform"] = platform
        for workload in run.WORKLOADS:
            for seed in args.seeds:
                ref.setdefault("digests", {}).setdefault(workload, {})[str(seed)] = \
                    one_pass(workload, seed, 0)["digests"]
    elif args.what == "counts":
        ref["counts"] = {"seed": 0}
        for workload in run.WORKLOADS:
            layers = one_pass(workload, 0, 1)["layers"]
            ref["counts"][workload] = {name: layers[name] for name in COUNTS}
    else:
        values = {}
        for path in args.outputs:
            with open(path) as fh:
                lines = fh.read().strip().splitlines()
            workload = next(w for w in (line.split()[0] for line in lines if " seed " in line)
                            if w in run.WORKLOADS)
            for name, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
        ref["baseline"] = {"env": run.environment()}
        for workload, metrics in sorted(values.items()):
            ref["baseline"][workload] = {}
            for name, vals in metrics.items():
                q1, med, q3 = run.quartiles(vals)
                ref["baseline"][workload][name] = {"median": med, "q1": q1, "q3": q3,
                                                   "runs": len(vals)}
    try:
        os.rmdir(run.WORK)
    except OSError:
        pass
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

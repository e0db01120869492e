"""Self-test of the benchmark at tiny scale (the TINY config of the tests).

    python3 perfbench/selftest.py

For every workload it runs `run.py --scale tiny` and asserts that every
end-to-end metric of BENCHMARK.json prints with its unit and that nothing
failed. It then makes two passes in this process, flips one byte of an
artifact in the second, and asserts that the digest check counts a failure,
both against the first pass and against a reference. Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402  (sibling module; also puts nothing on sys.path)
import worker  # noqa: E402  (puts src/ on sys.path)


def smoke(workload, declared):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        assert any(line.split()[:3:2] == [m["name"], m["unit"]] for line in lines), m
    assert any(line.split()[:3] == ["failed_ratio", "0", "ratio"] for line in lines), proc.stdout


def flip_first_byte(path):
    with open(path, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0x01]))


def corrupted_artifact(workload):
    import workloads
    clean = worker.one_pass(workload, 0, "tiny", os.path.join(run.WORK, "selftest-a"), 0)
    cls = workloads.WORKLOADS[workload]

    class Corrupting(cls):
        def artifacts(self):
            found = super().artifacts()
            flip_first_byte(found[sorted(found)[-1]])
            return found

    workloads.WORKLOADS[workload] = Corrupting
    try:
        bad = worker.one_pass(workload, 0, "tiny", os.path.join(run.WORK, "selftest-b"), 0)
    finally:
        workloads.WORKLOADS[workload] = cls
    assert clean["failed"] == 0 and bad["failed"] == 0

    attempted, failed, _ = run.check([clean, clean])
    assert failed == 0 and attempted > 0
    attempted, failed, _ = run.check([clean, bad])
    assert 0 < failed / attempted, "flipped byte not caught across passes"
    attempted, failed, _ = run.check([bad], clean["digests"], "all")
    assert 0 < failed / attempted, "flipped byte not caught against the reference"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    for workload in run.WORKLOADS:
        smoke(workload, declared)
        print(f"{workload}: metrics print with units; failed_ratio 0")
    os.makedirs(run.WORK, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            corrupted_artifact(workload)
            print(f"{workload}: a flipped artifact byte raises failed_ratio above 0")
    finally:
        os.rmdir(run.WORK)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own test.

    python3 bench/selfcheck.py

Checks, in order:

1. Seeded inputs are deterministic: building a workload twice with one
   seed gives byte-identical model files and argv lists, another seed
   gives other files, and no argv repeats within a pass.
2. The correctness gate catches planted faults.  In a scratch copy of
   the checkout under bench/_work/, it perturbs a golden transcript, a
   recorded digest and an expected exit code, runs one pass of the
   workload that holds each, and requires a failed op that names the
   planted fault, failed_share > 0, correct = false and a nonzero exit.
3. In a directory holding only BENCHMARK.json and bench/, the command
   exits nonzero without printing a result.

The fault runs pass --seconds 0, so each makes one pass; it takes about
a minute.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def _snapshot(workload, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(workload, seed, workdir)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as f:
            files[name] = f.read()
    return [op.argv for op in ops], files


def check_seeded_inputs():
    workdir = os.path.join(WORK, "selfcheck-inputs")
    for workload in workloads.WORKLOADS:
        first = _snapshot(workload, 7, workdir)
        again = _snapshot(workload, 7, workdir)
        other = _snapshot(workload, 8, workdir)
        assert first == again, "%s: seed 7 is not reproducible" % workload
        assert first[1] != other[1], "%s: seeds 7 and 8 agree" % workload
        assert len(set(first[0])) == len(first[0]), workload
    shutil.rmtree(workdir)
    print("ok   seeded inputs are byte-identical per seed")


def _copy_checkout(dest, with_program=True):
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(os.path.join(dest, "bench"))
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json", ".md")):
            shutil.copy(os.path.join(BENCH, name), os.path.join(dest, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_program:
        # test files are left out so that pytest never collects the copy
        for sub in ("src", "models", "tests/goldens", "tests/models"):
            shutil.copytree(os.path.join(ROOT, sub), os.path.join(dest, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))


def _run(checkout, workload):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0"],
        capture_output=True, text=True, cwd=checkout, timeout=300)


def _plant_golden(checkout):
    path = os.path.join(checkout, "tests", "goldens", "beam_derive_cartan.txt")
    with open(path, "a", encoding="utf-8") as f:
        f.write(" ")
    return "verdicts", "beam/derive-cartan: stdout differs"


def _plant_digest(checkout):
    path = os.path.join(checkout, "bench", "digests.json")
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    data["workloads"]["flows"]["beam/released"][1] = "0" * 64
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f)
    return "flows", "beam/released: output differs from the recorded digest"


def _plant_exit_code(checkout):
    path = os.path.join(checkout, "bench", "workloads.py")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    planted = text.replace("codes=(3,), seeded=False", "codes=(0,), seeded=False")
    assert planted != text, "the degenerate op's expected exit code moved"
    with open(path, "w", encoding="utf-8") as f:
        f.write(planted)
    return "verdicts", "degenerate/involution-stuck: exit code 3"


def check_planted_faults():
    checkout = os.path.join(WORK, "selfcheck-fault")
    for plant in (_plant_golden, _plant_digest, _plant_exit_code):
        _copy_checkout(checkout)
        workload, reason = plant(checkout)
        proc = _run(checkout, workload)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        share = [line for line in proc.stdout.split("\n")
                 if line.startswith("metric failed_share = ")]
        assert proc.returncode != 0, "%s: exit code 0" % plant.__name__
        assert result["failed"] >= 1 and not result["correct"], result
        assert share and float(share[0].split()[3]) > 0, share
        assert reason in proc.stderr, (reason, proc.stderr)
        print("ok   %s: %s failed %d of %d ops, exit %d"
              % (plant.__name__, workload, result["failed"],
                 result["attempted"], proc.returncode))
    shutil.rmtree(checkout)


def check_bare_directory():
    bare = os.path.join(WORK, "selfcheck-bare")
    _copy_checkout(bare, with_program=False)
    proc = _run(bare, "flows")
    assert proc.returncode != 0, "exit 0 without the program"
    assert "correct" not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok   without the program the command exits %d and prints no result"
          % proc.returncode)


if __name__ == "__main__":
    check_seeded_inputs()
    check_planted_faults()
    check_bare_directory()

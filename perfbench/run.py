#!/usr/bin/env python3
"""End-to-end benchmark of the FOCUS command-line interface.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deviate-100k --seed 1 --seconds 9 --trace 0

It builds the release `focus-cli` binary and the `perfbench` helper from
source, generates the workload's inputs from the seed, and then

* with `--trace 0`, drives `focus-cli` as a closed loop with one client for
  `--seconds` seconds and reports the end-to-end metrics;
* with `--trace 1`, replays the workload in process through the helper,
  with a timed span around every call into a layer, and reports the
  per-layer metrics.

Every op's output is checked against the in-process replica. The last
line of stdout is one JSON object; see perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Worker threads of every CLI process and of the replica, capped at the
# core count.
THREADS = min(2, os.cpu_count() or 1)
MINSUP = "0.005"
LITS_SNAPSHOTS = 10
DT_SNAPSHOTS = 6
# Fingerprints recorded in perfbench/fingerprints.json are for this seed.
DEFAULT_SEED = 1
WORKLOADS = ("deviate-100k", "qualify-10k", "registry-explore")
# The explore workload's query cycle: (replica output key, CLI arguments).
QUERIES = (
    ("matrix-lits-top", ["matrix", "--kind", "lits", "--top", "10"]),
    ("matrix-lits-fs", ["matrix", "--kind", "lits", "--f", "fs"]),
    ("matrix-dt-top", ["matrix", "--kind", "dt", "--top", "5"]),
    ("embed-lits", ["embed", "--kind", "lits"]),
)

def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (
        ["-p", "focus-cli"],
        ["--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "focus-cli"), os.path.join(release, "perfbench")


class Runner:
    """Runs child processes one at a time and records the CLI's peak memory."""

    def __init__(self, threads):
        self.env = dict(os.environ, FOCUS_THREADS=str(threads))
        self.peak_rss_kb = 0

    def run(self, cmd, cwd, env=None, track=True):
        """Runs `cmd` to completion; returns (exit code, stdout, stderr, wall s).

        Peak memory comes from the rusage `wait4` returns for the child:
        its `ru_maxrss` is the kernel's VmHWM high-water mark at exit.
        """
        out_path = os.path.join(cwd, ".stdout")
        err_path = os.path.join(cwd, ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env or self.env,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if track:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        return proc.returncode, stdout, stderr, wall


def helper_json(runner, helper, args, cwd, threads=THREADS):
    env = dict(runner.env, FOCUS_THREADS=str(threads))
    code, out, err, _ = runner.run([helper] + args, cwd, env, track=False)
    if code != 0 or not out.strip():
        fail(f"perfbench {' '.join(args)} failed:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


def invocations(workload, inputs, reg):
    """The CLI processes of one op: (arguments, replica output key)."""
    d1, d2 = (os.path.join(inputs, f) for f in ("d1.txt", "d2.txt"))
    if workload == "deviate-100k":
        return [(["deviate", "--d1", d1, "--d2", d2, "--minsup", MINSUP], "deviate")]
    if workload == "qualify-10k":
        return [(["qualify", "--d1", d1, "--d2", d2, "--minsup", MINSUP,
                  "--reps", "9", "--seed", "7"], "qualify")]
    return [(args + ["--dir", reg], key) for key, args in QUERIES]


def registry_adds(inputs, reg):
    """`registry-add` of every lits snapshot, then of every dt snapshot.

    Their stdout is empty; the registry they write is checked instead.
    """
    ops = []
    for i in range(LITS_SNAPSHOTS):
        name = f"lits-{i:02d}"
        ops.append((["registry-add", "--dir", reg, "--data",
                     os.path.join(inputs, f"{name}.txt"), "--name", name,
                     "--format", "bin", "--shards", "4", "--minsup", MINSUP], None))
    for j in range(DT_SNAPSHOTS):
        name = f"dt-{j}"
        ops.append((["registry-add", "--dir", reg, "--data",
                     os.path.join(inputs, f"{name}.tbl"), "--name", name,
                     "--kind", "dt"], None))
    return ops


def bounds_dominate(text):
    """δ* ≥ δ for every scanned cell of a printed `matrix`."""
    for line in text.splitlines():
        f = line.split()
        if len(f) == 6 and f[2] == "bound" and f[4] == "exact":
            if float(f[3]) < float(f[5]):
                return False
    return True


def output_ok(key, out, expect):
    """Stdout equals the replica's, and δ* ≥ δ wherever δ* bounds it (f_a)."""
    if key is None:
        return True
    if out != expect[key]:
        return False
    if key == "deviate":
        return float(out) <= float(expect["bound"])
    return key == "matrix-lits-fs" or bounds_dominate(out)


def run_op(tally, runner, cli, calls, cwd, expect):
    """Runs one op's CLI processes; returns their summed wall seconds."""
    total = 0.0
    for args, key in calls:
        code, out, err, wall = runner.run([cli] + args, cwd)
        tally.op(code == 0 and output_ok(key, out, expect),
                 f"focus-cli {' '.join(args)}: exit {code}, stdout {out[:200]!r}, "
                 f"stderr {err.strip()!r}")
        total += wall
    return total


def tree_bytes(root):
    """Relative path -> content of every file under a directory."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def replica(runner, helper, workload, work, inputs, reg, build=False, derived=False,
            threads=THREADS):
    args = ["replica", "--workload", workload, "--dir", inputs, "--reg", reg,
            "--build", str(int(build)), "--derived", str(int(derived))]
    return helper_json(runner, helper, args, work, threads)


def end_to_end(workload, seconds, cli, helper, work, inputs, runner, tally):
    """Drives the CLI as a closed loop with one client for `seconds`.

    Returns the median wall seconds of one op, the number of ops, and the
    wall seconds of the CLI processes that prepare what the ops read (the
    registry-explore build; 0 elsewhere).
    """
    reg = os.path.join(work, "reg")
    prepare = 0.0
    if workload == "registry-explore":
        prepare = run_op(tally, runner, cli, registry_adds(inputs, reg), work, {})
    expect = replica(runner, helper, workload, work, inputs, reg)
    for name, ok in expect["checks"].items():
        tally.check(ok, f"replica check {name} failed")
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(run_op(tally, runner, cli, invocations(workload, inputs, reg),
                            work, expect["outputs"]))
    print(f"{workload}: op walls {' '.join(f'{w:.3f}' for w in walls)} s", file=sys.stderr)
    return statistics.median(walls), len(walls), prepare


def traced(workload, cli, helper, work, inputs, runner, tally):
    """Replays the workload in process; returns the per-layer metrics.

    Three replays run: a warm-up, the traced one (with the derived probes)
    and one on a single thread. Their outputs and work counts must agree.
    One untraced op through the CLI, checked against the traced replay,
    gives the wall time the trace overhead is relative to.
    """
    def run(tag, derived=False, threads=THREADS):
        result = replica(runner, helper, workload, work, inputs,
                         os.path.join(work, f"reg-{tag}"), True, derived, threads)
        tally.op(all(result["checks"].values()), f"replay {tag}: a δ* check failed")
        return result

    warm = run("warm")
    main = run("traced", derived=True)
    reg = os.path.join(work, "reg-cli")
    cli_wall = 0.0
    if workload == "registry-explore":
        cli_wall += run_op(tally, runner, cli, registry_adds(inputs, reg), work, {})
        tally.op(tree_bytes(reg) == tree_bytes(os.path.join(work, "reg-traced")),
                 "the CLI's registry differs byte for byte from the traced replay's")
    cli_wall += run_op(tally, runner, cli, invocations(workload, inputs, reg), work,
                       main["outputs"])
    single = run("single", threads=1)
    for tag, other in (("warm-up", warm), ("1 thread", single)):
        tally.check(other["outputs"] == main["outputs"], f"replay outputs differ: {tag}")
        tally.check(other["counts"] == main["counts"], f"work counts differ: {tag}")
    metrics = dict(main["timings"])
    metrics.update(main["counts"])
    pairs = metrics.get("matrix.pairs", 0)
    metrics["matrix.prune_frac"] = metrics.get("matrix.pruned", 0) / pairs if pairs else 0
    metrics["trace.overhead"] = main["wall"] / cli_wall
    metrics["threads"] = main["threads"]
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cli, helper = build(root, target)

    work = os.path.join(root, ".bench_work", a.workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    runner = Runner(THREADS)
    tally = Tally()

    setup = helper_json(runner, helper, ["setup", "--workload", a.workload, "--seed",
                                         str(a.seed), "--dir", inputs], work)
    if a.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            recorded = json.load(f)[a.workload]
        if setup["fingerprints"] != recorded:
            fail(f"generated inputs differ from the recorded fingerprints: "
                 f"{setup['fingerprints']} vs {recorded}")

    if a.trace:
        values = traced(a.workload, cli, helper, work, inputs, runner, tally)
        wanted = spec["per_layer"]
    else:
        op_s, n, prepare = end_to_end(a.workload, a.seconds, cli, helper, work, inputs,
                                      runner, tally)
        values = {
            # Work a change moves from the ops into preparation shows here.
            "setup_s": statistics.median(setup["secs"]) + prepare,
            "op_s": op_s,
            "peak_rss_mb": runner.peak_rss_kb / 1024.0,
        }
        wanted = spec["end_to_end"]
        print(f"{a.workload}: {n} ops, median {op_s:.4f} s, FOCUS_THREADS={THREADS} "
              f"of {os.cpu_count()} cores", file=sys.stderr)
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass  # another workload's files are still there
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

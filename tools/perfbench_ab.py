#!/usr/bin/env python3
"""Same-host perfbench A/B of two source trees.

    python3 tools/perfbench_ab.py --base BASE_DIR --head HEAD_DIR \\
        [--workloads study,optimize,replay] [--seed 7] [--seconds 10] \\
        [--pairs 5] [--out-dir ab-out]

Copies each tree's src/ next to the HEAD tree's perfbench/ and
BENCHMARK.json under --out-dir, so both sides are measured by the same
benchmark code, then runs `perfbench/run.py --workload W --seed S
--seconds T` on the two sides in alternating order, pair after pair, on
this host. perfbench's calibration removes a host's drift over time, not
the difference between two hosts, which is why both sides must run here.

Fails (exit 1) when any run of either side reports correct: false, when
the head fails a larger share of its operations than the base, or when the
head's median of an end-to-end metric is worse than the base's by more
than that metric's bound in BENCHMARK.json (read-only here). Writes
ab-summary.json and each side's perfbench results.jsonl into --out-dir.
Exit 2 on a usage or build error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

SIDES = ("base", "head")
RUN_TIMEOUT_S = 1800  # one perfbench invocation, build included


class AbError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(tree, *args):
    try:
        done = subprocess.run(["git", "-C", tree] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_rev(tree):
    """The tree's commit, with "+dirty" when tracked files differ from it."""
    rev = git(tree, "rev-parse", "HEAD")
    if rev and git(tree, "status", "--porcelain", "--untracked-files=no"):
        rev += "+dirty"
    return rev


def prepare(name, source, head, out_dir):
    """<out_dir>/<name>: `source`'s src/ with head's perfbench/ and
    BENCHMARK.json. A build directory left by an earlier run is kept."""
    tree = os.path.join(out_dir, name)
    os.makedirs(tree, exist_ok=True)
    for sub in ("src", "perfbench"):
        shutil.rmtree(os.path.join(tree, sub), ignore_errors=True)
    if not os.path.isfile(os.path.join(source, "src", "CMakeLists.txt")):
        raise AbError("%s: no src/CMakeLists.txt in %s" % (name, source))
    shutil.copytree(os.path.join(source, "src"), os.path.join(tree, "src"))
    shutil.copytree(os.path.join(head, "perfbench"),
                    os.path.join(tree, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(head, "BENCHMARK.json"),
                    os.path.join(tree, "BENCHMARK.json"))
    return tree


def run_perfbench(tree, workload, seed, seconds):
    """One perfbench invocation; returns its result line as a dict."""
    env = dict(os.environ)
    # The copied tree has no .git; keep git from reporting the revision of
    # a repository that happens to enclose --out-dir.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(tree)
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise AbError("perfbench timed out: %s" % " ".join(command)) from error
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        log(done.stdout[-2000:] + done.stderr[-2000:])
        raise AbError("perfbench failed (exit %d): %s" % (
            done.returncode, " ".join(command)))
    return json.loads(lines[-1])


def worse_by(metric, base, head):
    """How much worse head is than base, as a fraction of base (negative
    when head is better)."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def compare(bench, runs, problems):
    """Per-workload medians, changes and head wins for every end-to-end
    metric; appends a problem per bound exceeded."""
    report = {}
    for workload in sorted({run["workload"] for run in runs}):
        by_side = {side: [r for r in runs if r["workload"] == workload
                          and r["side"] == side] for side in SIDES}
        entry = {"pairs": min(len(v) for v in by_side.values())}
        share = {}
        for side in SIDES:
            attempted = sum(r["attempted"] for r in by_side[side])
            failed = sum(r["failed"] for r in by_side[side])
            share[side] = failed / attempted if attempted else 1.0
        entry["failed_share"] = share
        if share["head"] > share["base"]:
            problems.append("%s: head fails %.4f of its operations, base "
                            "%.4f" % (workload, share["head"], share["base"]))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name] for r in by_side[side]]
                      for side in SIDES}
            medians = {side: statistics.median(values[side])
                       for side in SIDES}
            worse = worse_by(metric, medians["base"], medians["head"])
            wins = sum(worse_by(metric, b, h) < 0
                       for b, h in zip(values["base"], values["head"]))
            entry[name] = {"unit": metric["unit"], "base": values["base"],
                           "head": values["head"], "median": medians,
                           "worse_by": worse, "bound": metric["bound"],
                           "head_wins": wins}
            change = ((medians["head"] - medians["base"]) /
                      abs(medians["base"]) if medians["base"] else 0.0)
            print("  %-9s %-16s base %12.6g  head %12.6g  %+7.1f%% (%s); "
                  "head better in %d/%d pairs" % (
                      workload, name, medians["base"], medians["head"],
                      100.0 * change, "worse" if worse > 0 else "not worse",
                      wins, entry["pairs"]))
            if worse > metric["bound"]:
                problems.append("%s: %s is %.1f%% worse than the base "
                                "(bound %.0f%%)" % (
                                    workload, name, 100.0 * worse,
                                    100.0 * metric["bound"]))
        report[workload] = entry
    return report


def main(argv):
    parser = argparse.ArgumentParser(
        description="same-host perfbench A/B of a base and a head tree")
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out-dir", default="ab-out")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0 or args.seed < 0:
        raise AbError("pairs must be >= 1, seconds and seed >= 0")

    head = os.path.abspath(args.head)
    sources = {"base": os.path.abspath(args.base), "head": head}
    with open(os.path.join(head, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    trees = {side: prepare(side, sources[side], head, out_dir)
             for side in SIDES}
    for side in SIDES:
        # Discard records of earlier invocations, so results.jsonl holds
        # exactly this A/B's runs.
        results = os.path.join(trees[side], ".bench_build", "results.jsonl")
        if os.path.exists(results):
            os.remove(results)

    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                log("perfbench_ab: %s pair %d/%d, %s" % (
                    workload, pair + 1, args.pairs, side))
                result = run_perfbench(trees[side], workload, args.seed,
                                       args.seconds)
                runs.append({
                    "side": side, "workload": workload, "pair": pair,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {name: entry["value"] for name, entry
                                in result["metrics"].items()}})

    problems = ["%s %s pair %d: correct is false" % (
        run["side"], run["workload"], run["pair"] + 1)
        for run in runs if run["correct"] is not True]
    print("perfbench A/B, seed %d, %g s per run, %d pairs per workload" % (
        args.seed, args.seconds, args.pairs))
    report = compare(bench, runs, problems)

    for side in SIDES:
        results = os.path.join(trees[side], ".bench_build", "results.jsonl")
        if os.path.exists(results):
            shutil.copyfile(results, os.path.join(
                out_dir, "%s-results.jsonl" % side))
    summary = {"revisions": {side: git_rev(sources[side]) for side in SIDES},
               "seed": args.seed, "seconds": args.seconds,
               "pairs": args.pairs, "workloads": report, "runs": runs,
               "problems": problems, "pass": not problems}
    with open(os.path.join(out_dir, "ab-summary.json"), "w",
              encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    for problem in problems:
        print("  FAILED: " + problem)
    print("perfbench A/B: %s" % ("pass" if not problems else "FAIL"))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (AbError, OSError, ValueError, KeyError) as error:
        log("perfbench_ab: %s" % error)
        sys.exit(2)

#!/usr/bin/env python3
"""Interleaved A/B pairs of the benchmark: a base revision against the
working tree.

    python3 scripts/ab.py --base HEAD~1 --workload ior_shared_tcp \\
        --pairs 10 [--seed 1] [--seconds 20] [--out pairs.json]
    python3 scripts/ab.py --self-test

The base revision is exported with `git archive` into .bench_build/ab/
and each tree (base and working tree) is built and run through its own
perfbench/run.py with its own CARGO_TARGET_DIR, so neither side's build
or data touches the other's. Pair i runs the base first when i is even
and the change first when i is odd. Both sides of a pair use the same
seed (--seed, default 1).

For every end-to-end metric in BENCHMARK.json the report gives each
side's median and quartiles, the change/base ratio of the medians and
the pairs the change won (ties count for neither side). A metric is
"unresolved" when the base's quartile spread, relative to its median,
exceeds the metric's bound and the two sides' runs overlap; otherwise
"gain" when the change won at least 9 in 10 pairs and the medians differ
by more than the base's quartile spread, "worse" when the change's
median is worse than the base's by more than the bound, and "held".
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------ statistics


def quartiles(values):
    """(q1, median, q3), linear interpolation between order statistics
    (the 'inclusive' method: q1 of [1, 2, 3, 4, 5] is 2)."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(base, change, better):
    """Pairs where the change beat the base; ties count for neither."""
    if better == "higher":
        return sum(1 for b, c in zip(base, change) if c > b)
    return sum(1 for b, c in zip(base, change) if c < b)


def judge(base, change, better, bound):
    """One metric's row: medians, quartiles, ratio, wins and verdict."""
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    n = len(base)
    won = wins(base, change, better)
    spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    ratio = cmed / bmed if bmed else float("inf") if cmed else 1.0
    # How much worse the change's median is, as a fraction of the base's.
    worse = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    # Every change run better than every base run.
    separated = (min(change) > max(base) if better == "higher"
                 else max(change) < min(base))
    if spread > bound and not separated:
        verdict = "unresolved"
    elif won >= 0.9 * n and abs(cmed - bmed) > (bq3 - bq1):
        verdict = "gain"
    elif worse > bound:
        verdict = "worse"
    else:
        verdict = "held"
    return {"base": [bq1, bmed, bq3], "change": [cq1, cmed, cq3],
            "ratio": ratio, "wins": won, "pairs": n, "spread": spread,
            "verdict": verdict}


def report(spec, runs):
    """Rows for every end-to-end metric, from runs = {"base": [...],
    "change": [...]} of parsed result lines, in pair order."""
    rows = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        rows[name] = judge(base, change, m["better"], m["bound"])
    return rows


def print_report(spec, runs, rows, out=sys.stdout):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{'metric':<16} {'base q1/med/q3':>28} {'change q1/med/q3':>28}"
          f" {'chg/base':>8} {'wins':>6}  verdict", file=out)
    for name, r in rows.items():
        b = "/".join(f"{v:.4g}" for v in r["base"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{name:<16} {b:>28} {c:>28} {r['ratio']:>8.3f}"
              f" {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}"
              f" ({units[name]}, base spread {r['spread']:.3f})", file=out)
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: failed {failed} of {attempted} attempted", file=out)


def self_test():
    """Check the statistics on fixed numbers; exit 0 when all hold."""
    checks = []

    def check(what, got, want):
        ok = (abs(got - want) < 1e-9 if isinstance(want, float)
              else got == want)
        checks.append(ok)
        if not ok:
            print(f"self-test FAIL {what}: got {got!r}, want {want!r}")

    check("quartiles odd", quartiles([5, 1, 3, 2, 4]), (2.0, 3.0, 4.0))
    check("quartiles even", quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))
    check("quartiles one", quartiles([7]), (7.0, 7.0, 7.0))
    check("wins higher", wins([1, 2, 3, 4], [2, 2, 1, 5], "higher"), 2)
    check("wins lower", wins([1, 2, 3, 4], [2, 2, 1, 5], "lower"), 1)

    base = [100.0, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    gain = [500.0, 510, 490, 505, 495, 500, 515, 485, 500, 505]
    r = judge(base, gain, "higher", 0.25)
    check("gain verdict", r["verdict"], "gain")
    check("gain wins", r["wins"], 10)
    check("gain ratio", r["ratio"], 5.0)
    r = judge(base, list(base), "higher", 0.25)
    check("tie verdict", r["verdict"], "held")
    check("tie wins", r["wins"], 0)
    slow = [v * 0.7 for v in base]
    check("worse verdict", judge(base, slow, "higher", 0.25)["verdict"],
          "worse")
    check("lower-better worse", judge(base, [v * 1.3 for v in base],
                                      "lower", 0.25)["verdict"], "worse")
    check("lower-better within bound",
          judge(base, [v * 1.2 for v in base], "lower", 0.25)["verdict"],
          "held")
    noisy = [0.2, 2.0, 0.4, 0.3, 0.39, 0.21, 1.5, 0.3, 0.35, 0.38]
    r = judge(noisy, list(noisy), "lower", 0.25)
    check("unresolved verdict", r["verdict"], "unresolved")
    faster = [v / 10 for v in noisy]  # 9/10 wins, ranges overlap
    faster[1] = 2.5
    check("unresolved despite wins",
          judge(noisy, faster, "lower", 0.25)["verdict"], "unresolved")
    check("separated gain over a wide base",
          judge(noisy, [0.01] * 10, "lower", 0.25)["verdict"], "gain")

    spec = {"end_to_end": [{"name": "x", "unit": "1/s", "better": "higher",
                            "bound": 0.25}]}
    runs = {side: [{"metrics": {"x": {"value": v}}, "failed": 0,
                    "attempted": 1} for v in vals]
            for side, vals in (("base", base), ("change", gain))}
    check("report row", report(spec, runs)["x"]["verdict"], "gain")

    print(f"self-test: {sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


# ------------------------------------------------------------- running


def export_base(rev):
    """git archive `rev` into .bench_build/ab/<sha>; returns the tree."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True, text=True,
                         check=True).stdout.strip()
    tree = os.path.join(AB_DIR, sha[:12])
    if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"ab: git archive {rev} failed")
    return tree, sha


def run_side(tree, target, args, extra=()):
    """One benchmark run through `tree`'s own run.py; the parsed result."""
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               # Keep git from finding the enclosing checkout, so an
               # exported tree reports no commit of its own.
               GIT_CEILING_DIRECTORIES=AB_DIR)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", *extra]
    r = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"ab: no result from {tree}:\n{r.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if r.returncode != 0:
        print(f"ab: {tree} exited {r.returncode}", file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", help="write every run's result here (JSON)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.workload:
        ap.error("--base and --workload are required")

    spec = load_spec()
    base_tree, sha = export_base(args.base)
    sides = {"base": (base_tree, os.path.join(AB_DIR, "target-base")),
             "change": (ROOT, os.path.join(AB_DIR, "target-change"))}
    for side, (tree, target) in sides.items():  # build, untimed
        run_side(tree, target, args, extra=("--tiny",))
        print(f"ab: built {side} ({tree})", file=sys.stderr)

    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            tree, target = sides[side]
            runs[side].append(run_side(tree, target, args))
        b = runs["base"][-1]["metrics"]
        c = runs["change"][-1]["metrics"]
        print(f"ab: pair {i + 1}/{args.pairs} ({order[0]} first): "
              + " ".join(f"{m['name']}={b[m['name']]['value']:.4g}->"
                         f"{c[m['name']]['value']:.4g}"
                         for m in spec["end_to_end"]),
              file=sys.stderr)

    rows = report(spec, runs)
    print(f"workload {args.workload}, {args.pairs} pairs, seed {args.seed},"
          f" --seconds {args.seconds:g}, base {sha[:12]} vs working tree")
    print_report(spec, runs, rows)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "base": sha, "runs": runs,
                       "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

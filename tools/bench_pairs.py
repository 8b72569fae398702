"""Interleaved parent/change runs of the benchmark, summarised per metric.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 1-10 --seconds 20 > pairs.json

``--seeds`` also takes a comma list of seeds, such as ``11,13``.
``--seconds`` must be a finite, non-negative number; any other value is
refused, with exit code 2, before either tree is extracted.  So is a
``--parent`` or ``--change`` that names no tree in the repository: both
are resolved before either is extracted.  A benchmark run that takes
longer than 600 s, or whose last line of output is not its JSON result,
stops the script with one line naming the workload, the seed and the
tree; a run that exits nonzero stops it with that line and the run's exit
code, followed by the run's standard error.  Every refusal exits 2.
While the extracted trees exist, ``SIGTERM`` stops the script with exit
code 143 as an exception, so the temporary directory is removed and the
running benchmark is killed, not left behind; the previous handler is
restored afterwards.

Both revisions (any git tree-ish, such as a commit or the output of
``git write-tree``) are extracted with ``git archive`` into a temporary
directory, so neither holds files the working tree has but git does not.
For each seed and each workload, always all four in the order of
``WORKLOADS``, ``bench/run.py --trace 0`` runs once on each tree, the
parent first on odd seeds and the change first on even ones, with
``PYTHONDONTWRITEBYTECODE=1``.  The script refuses to run if either
tree holds a ``__pycache__`` directory: bytecode left by an earlier run
makes that side's ``setup_s`` and ``peak_rss_mb`` look better.

The JSON printed on standard output names both revisions as given and,
as ``parent_tree`` and ``change_tree``, the tree ids they resolved to,
which are the trees measured.  It gives, for each workload and
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles
(inclusive method), the ratio of the medians, the medians' distance, the
parent's interquartile distance and the number of pairs in which the
change is better.  Two fields judge each metric: ``gain_rule_met``, the
change better in at least 9 of 10 pairs (a tie counts for neither side)
and its median better than the parent's by more than the parent's
interquartile distance; and ``within_bound``, the change's median worse
than the parent's by no more than the metric's ``bound`` in
``BENCHMARK.json``, a fraction of the parent's median.  Under
``agreement`` it gives, per workload, how many seed pairs read the same
correct, attempted and failed counts and, on verify-all, the same report
digest.  It also lists every run's metrics, its attempted, failed and
correct counts and, on verify-all, its report digest.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("figures", "verify-all", "fit-certify", "center-queries")
SIDES = ("parent", "change")
REPORT = re.compile(r"report sha256 (\S+)")
RUN_TIMEOUT = 600  # seconds one benchmark run may take


def refuse(message: str) -> None:
    """Stop with one line on standard error and exit code 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def resolve(repo: Path, flag: str, rev: str) -> str:
    """The id of the tree ``rev`` names; a revision that names none exits 2
    with a one-line message."""
    proc = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", "--quiet",
                           "--end-of-options", f"{rev}^{{tree}}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        refuse(f"bench_pairs: {flag} {rev!r} names no tree in {repo}")
    return proc.stdout.strip()


def extract(repo: Path, rev: str, dest: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into ``dest``."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        # the "data" filter, where this Python has it, refuses unsafe members
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        fh.extractall(dest, **safe)
    return dest


def refuse_bytecode(tree: Path) -> None:
    found = next(tree.rglob("__pycache__"), None)
    if found is not None:
        refuse(f"bench_pairs: {found} holds compiled bytecode; refusing to run")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line, plus the verify-all report digest."""
    refuse_bytecode(tree)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    run = f"bench_pairs: {workload} seed {seed} in {tree}"
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        refuse(f"{run} ran past {RUN_TIMEOUT} s")
    if proc.returncode != 0:
        refuse(f"{run} exited {proc.returncode}\n{proc.stderr}".rstrip())
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        digest = REPORT.search(proc.stdout)
        return {"seed": seed, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "report_sha256": digest.group(1) if digest else None,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        refuse(f"{run} printed no JSON result as its last line")


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def agreement(workload: str, sides: dict) -> dict:
    """How many seed pairs read the same ``correct``, ``attempted`` and
    ``failed`` on both sides, and on verify-all the same report digest."""
    keys = ("correct", "attempted", "failed")
    if workload == "verify-all":
        keys += ("report_sha256",)
    pairs = list(zip(sides["parent"], sides["change"]))
    return {"pairs": len(pairs),
            **{key: sum(p[key] == c[key] for p, c in pairs) for key in keys}}


def summarise(runs: dict, better: dict, bounds: dict | None = None) -> dict:
    """Per workload: the seed pairs' agreement and, per metric, both sides'
    spreads, the pair comparison and the two judgements; ``within_bound``
    is ``None`` for a metric that ``bounds`` gives no bound."""
    out = {}
    for workload, sides in runs.items():
        out[workload] = {"agreement": agreement(workload, sides)}
        for metric, direction in better.items():
            pairs = [(p["metrics"].get(metric), c["metrics"].get(metric))
                     for p, c in zip(sides["parent"], sides["change"])]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if len(pairs) < 2:
                continue
            old, new = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
            wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
            gain = old["median"] - new["median"]
            if direction != "lower":
                gain = -gain
            iqr = old["q3"] - old["q1"]
            bound = (bounds or {}).get(metric)
            out[workload][metric] = {
                "parent": old, "change": new,
                "ratio": round(new["median"] / old["median"], 4) if old["median"] else None,
                "median_distance": round(abs(new["median"] - old["median"]), 6),
                "parent_iqr": round(iqr, 6),
                "pairs_change_better": wins, "pairs": len(pairs),
                "gain_rule_met": 10 * wins >= 9 * len(pairs) and gain > iqr,
                "within_bound": None if bound is None else -gain <= bound * old["median"]}
    return out


def seed_range(text: str) -> list[int]:
    """The seeds of an inclusive range ``lo-hi`` or of a comma list such as
    ``11,13``; a summary needs at least two pairs, so a descending range, a
    single seed or a repeated one is refused."""
    if "," in text:
        seeds = [int(s) for s in text.split(",")]
    else:
        lo, _, hi = text.partition("-")
        seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(
            f"{text!r} gives {len(seeds)} seed(s); need lo-hi with lo < hi "
            "or a comma list of distinct seeds")
    return seeds


def run_seconds(text: str) -> float:
    """A finite, non-negative ``--seconds``; anything else is refused before
    a tree is extracted."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite, non-negative number of seconds")
    return seconds


def terminated(signum, frame) -> None:
    """The ``SIGTERM`` handler while the trees exist: exit 143 (128 + 15)
    by ``SystemExit``, which unwinds through the cleanup of the temporary
    directory and of ``subprocess.run``, which kills its child."""
    raise SystemExit(128 + signal.SIGTERM)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="tree-ish of the parent")
    parser.add_argument("--change", default="HEAD", help="tree-ish of the change")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="inclusive range such as 1-10, or a list such as 11,13")
    parser.add_argument("--seconds", type=run_seconds, default=20.0)
    args = parser.parse_args(argv)
    repo = Path(__file__).resolve().parents[1]
    revs = {side: resolve(repo, f"--{side}", rev)
            for side, rev in zip(SIDES, (args.parent, args.change))}

    previous = signal.signal(signal.SIGTERM, terminated)
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            trees = {side: extract(repo, revs[side], Path(tmp) / side)
                     for side in SIDES}
            with open(trees["change"] / "BENCHMARK.json", encoding="utf-8") as fh:
                metrics = json.load(fh)["end_to_end"]
            better = {m["name"]: m["better"] for m in metrics}
            bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
            runs = {w: {side: [] for side in SIDES} for w in WORKLOADS}
            for seed in args.seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                for workload in WORKLOADS:
                    for side in order:
                        runs[workload][side].append(
                            run_once(trees[side], workload, seed, args.seconds))
                        print(f"seed {seed} {workload} {side} done", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, previous)

    out = {"parent": args.parent, "change": args.change,
           "parent_tree": revs["parent"], "change_tree": revs["change"],
           "command": f"python3 bench/run.py --workload <w> --seed <s> "
                      f"--seconds {args.seconds:g} --trace 0",
           "seeds": args.seeds, "workloads": summarise(runs, better, bounds),
           "runs": runs}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare a base revision with this tree in alternating benchmark pairs.

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --seconds 10 \
        --workload ul_harq_awgn --out BENCH.json

Run from anywhere inside the repository. Both sides run from exports in
a temporary directory, removed again on exit, error or interrupt
included, so that neither side runs from the checkout: ``--base`` is
exported with ``git archive``, and this tree by copying the files git
tracks or would track as they are on disk, committed or not (files git
ignores, such as caches, are left out). The exports write nothing into
the repository: a ``git worktree`` would be registered in its ``.git``
and stay registered after a run killed by a signal no ``finally`` sees
(SIGKILL). Pair ``i`` runs ``perfbench/run.py --trace 0`` once in
each tree with seed ``--first-seed + i``; the tree that runs first
alternates from pair to pair, so a drift of the machine's speed favours
neither. Each tree runs its own ``perfbench`` on its own ``src``, one run
at a time.

The JSON written to ``--out`` names the machine (CPU model, ``nproc``,
Python and numpy versions), both commits, the seeds and the pair count.
For every workload and every end-to-end metric of ``BENCHMARK.json`` it
holds each tree's median, p90 and quartiles, and the number of pairs in
which the change was better; each run's metrics, quality metrics and
failed-step count are kept too, with the minor page faults and maximum
resident set size of the run's process tree (its timed set-ups included),
and each tree's median of both, so that effects of heap layout show.
``--workload`` may be given several times; each must name a workload of
``BENCHMARK.json``, or the command exits with code 2 before it exports a
tree.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_measure():
    """perfbench's ``measure`` under a private name, leaving ``sys.path``
    and the top-level ``measure`` name alone."""
    spec = importlib.util.spec_from_file_location(
        "_bench_pairs_measure", ROOT / "perfbench" / "measure.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


nearest_rank = _load_measure().nearest_rank


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(dest: Path) -> None:
    """Copy this tree's files as they are on disk into ``dest``: every file
    git tracks or would track, committed or not, but none it ignores."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if not source.is_file():      # deleted but not yet staged
            continue
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, dest / name)


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        model = platform.processor()
    import numpy
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its end-to-end metrics,
    quality metrics, step counts and resource usage.

    The usage is what ``getrusage(RUSAGE_CHILDREN)`` adds for this one
    child, read with ``os.wait4``: a difference of ``RUSAGE_CHILDREN``
    around the run would do for the fault count, but its ``ru_maxrss`` is
    the largest of every child waited for so far."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=tree, stdout=out, stderr=err,
                                text=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # SIGTERM or ^C: the run must not outlive its removed tree
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv, stdout,
                                            stderr)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "quality": detail["quality"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "minflt": usage.ru_minflt, "maxrss_mb": usage.ru_maxrss / 1024}


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each tree's median, p90 and quartiles, and the pairs in
    which the change was better."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        trees = {tree: [r[tree]["metrics"][name] for r in runs]
                 for tree in ("base", "change")}
        stats = {}
        for tree, values in trees.items():
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (values[0],) * 3
            stats[tree] = {"median": statistics.median(values),
                           "p90": nearest_rank(values, 0.9), "q1": q1, "q3": q3}
        sign = 1 if spec["better"] == "lower" else -1
        out[name] = {"unit": spec["unit"], "better": spec["better"], **stats,
                     "change_won": sum(sign * (c - b) < 0 for b, c in zip(
                         trees["base"], trees["change"]))}
    return out


def rusage_summary(runs: list[dict]) -> dict:
    """Each tree's median minor page faults and maximum RSS per run."""
    return {tree: {key: statistics.median(r[tree][key] for r in runs)
                   for key in ("minflt", "maxrss_mb")}
            for tree in ("base", "change")}


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        parser.error(f"unknown --workload {', '.join(unknown)}; "
                     f"BENCHMARK.json declares {', '.join(known)}")
    try:
        base_commit = _git("rev-parse", "--verify", args.base + "^{commit}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base!r} names no commit")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    doc = {
        "command": "python3 tools/bench_pairs.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "machine": machine(),
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git(
                       "status", "--porcelain", "--", "src", "perfbench"))},
        "seconds": args.seconds, "pairs": args.pairs, "seeds": seeds,
        "workloads": {},
    }
    signal.signal(signal.SIGTERM, _stop)
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    base_tree = scratch / "base"
    try:
        base_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", base_commit], check=True,
            capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive,
                       check=True)
        trees = {"base": base_tree, "change": scratch / "change"}
        export_tree(trees["change"])
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 \
                    else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for tree in order:
                    pair[tree] = run_once(trees[tree], workload, seed,
                                          args.seconds)
                runs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{t} {pair[t]['metrics']['ms_per_op']:.2f} ms"
                    for t in ("base", "change")), file=sys.stderr)
            doc["workloads"][workload] = {
                "metrics": summary(runs, spec["end_to_end"]),
                "rusage": rusage_summary(runs), "runs": runs}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""gcdcensus benchmark: seeded CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Workloads and metrics are declared in BENCHMARK.json; `corpus.py` builds
each workload's jobs from the seed.  Every job is a `gcdcensus` CLI
process (`python3 -m gcdcensus.cli`, with src/ of this checkout on
PYTHONPATH), started one at a time by `launcher.py` at this process's
request: a closed loop with one client.  The timed phase repeats whole passes over the corpus for about
--seconds (at least two passes, so outputs can be compared between
passes).  Each output is checked after the timed phase; a nonzero
exit, a timeout or a wrong output counts as a failed job.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs the same
jobs in-process (`tracer.py`), alternating a traced and an untraced pass
in fresh interpreters, and prints per-layer metrics from the spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (environment,
every job, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

JOB_TIMEOUT_S = 60.0
# every run ends within this, whatever the jobs do
RUN_BUDGET_S = 165.0
MIN_PASSES = 2
SETUP_LAUNCHES = 7


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GCDCENSUS_THREADS", None)
    return env


class Runner:
    """Runs child processes one at a time against a run deadline, through
    a lean launcher process (see launcher.py for why)."""

    def __init__(self, deadline: float, workdir: Path):
        self.deadline = deadline
        self.launcher = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py"), str(workdir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=_child_env(),
            cwd=ROOT,
        )

    def launch(self, argv: list[str], timeout: float = JOB_TIMEOUT_S) -> dict:
        """Run argv to completion; wall time, exit code, output, peak RSS."""
        timeout = min(timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            return {"seconds": 0.0, "rc": None, "stdout": "", "stderr": "", "rss_mb": 0.0}
        self.launcher.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()


def _cli(doc_path: Path, job: dict) -> list[str]:
    return [sys.executable, "-m", "gcdcensus.cli", job["command"], str(doc_path), *job["args"], "--format", "json"]


def _oracles(jobs: list[dict]) -> dict[int, object]:
    """Closed-form values each job must reproduce exactly."""
    from gcdcensus import nymann_count, rwise_constant, toth_pairwise_constant

    values = {}
    for job in jobs:
        oracle = job["oracle"]
        if oracle is None:
            continue
        if oracle[0] == "toth":
            values[job["id"]] = toth_pairwise_constant(oracle[1], int(job["args"][1]))
        elif oracle[0] == "rwise":
            values[job["id"]] = rwise_constant(oracle[1], oracle[2], int(job["args"][1]))
        else:
            values[job["id"]] = nymann_count(oracle[1], job["x"])
    return values


def check(job: dict, rc, stdout: str, oracle) -> tuple[dict | None, str | None]:
    """(parsed output, failure reason or None) for one finished job."""
    if rc != 0:
        return None, "timed out" if rc is None else f"exit code {rc}"
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "unparsable output"
    if not isinstance(out, dict):
        return None, "unparsable output"
    if job["command"] == "constant":
        lo, value, hi = out.get("lower"), out.get("value"), out.get("upper")
        if not all(isinstance(v, float) for v in (lo, value, hi)) or not 0 < lo <= value <= hi:
            return out, f"interval does not hold the value: {lo}, {value}, {hi}"
        if oracle is not None and value != oracle:
            return out, f"value {value!r} differs from the closed form {oracle!r}"
    else:
        n = out.get("count")
        if out.get("x") != job["x"] or not isinstance(n, int) or not 0 <= n <= job["x"] ** job["k"]:
            return out, f"count {n!r} outside [0, x**k]"
        if oracle is not None and n != oracle:
            return out, f"count {n} differs from nymann_count {oracle}"
    return out, None


def _verify(jobs, records, oracles) -> int:
    """Check every record in place; outputs must also agree between passes."""
    first: dict[int, dict] = {}
    failed = 0
    for rec in records:
        job = jobs[rec["id"]]
        out, reason = check(job, rec["rc"], rec["stdout"], oracles.get(rec["id"]))
        if reason is None:
            seen = first.setdefault(rec["id"], out)
            if seen != out:
                reason = "output differs between passes"
        rec["ok"] = reason is None
        rec["reason"] = reason
        rec["output"] = out
        failed += reason is not None
    return failed


def _rel_width(jobs, records) -> float:
    widths = [
        (r["output"]["upper"] - r["output"]["lower"]) / r["output"]["value"]
        for r in records
        if r["ok"] and jobs[r["id"]]["command"] == "constant"
    ]
    return statistics.median(widths) if widths else 0.0


def _median_launch(runner: Runner, argv: list[str], n: int = SETUP_LAUNCHES) -> float:
    runner.launch(argv)  # warm the file cache and the bytecode cache
    times = []
    for _ in range(n):
        rec = runner.launch(argv)
        if rec["rc"] != 0:
            raise RuntimeError(f"set-up launch failed ({rec['rc']}): {' '.join(argv)}\n{rec['stderr']}")
        times.append(rec["seconds"])
    return statistics.median(times)


def _end_to_end(jobs, runner, doc_paths, seconds, oracles) -> dict:
    setup_s = _median_launch(runner, [sys.executable, "-m", "gcdcensus.cli", "check", str(doc_paths[0])])
    records, pass_walls = [], []
    start = time.perf_counter()
    # whole passes only; another one starts while it would end nearer to
    # --seconds than stopping now would
    while len(pass_walls) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(pass_walls) / 2 < seconds
    ):
        if time.perf_counter() >= runner.deadline:
            break
        t0 = time.perf_counter()
        for job in jobs:
            rec = runner.launch(_cli(doc_paths[job["id"]], job))
            rec.update(id=job["id"], name=job["name"], pass_no=len(pass_walls))
            records.append(rec)
        pass_walls.append(time.perf_counter() - t0)
    failed = _verify(jobs, records, oracles)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        "job_p50_s": (statistics.median(r["seconds"] for r in records), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
    }
    extra = {
        "passes": len(pass_walls),
        "pass_walls_s": pass_walls,
        "fail_ratio": failed / len(records),
        "constant_rel_width": _rel_width(jobs, records),
    }
    return {"metrics": metrics, "attempted": len(records), "failed": failed, "records": records, "extra": extra}


def _in_process_pass(runner, workdir, jobs_file, traced: bool, n: int) -> dict:
    out_file = workdir / f"pass-{n}.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(jobs_file), str(out_file)]
    rec = runner.launch(argv + (["--traced"] if traced else []), timeout=RUN_BUDGET_S)
    if rec["rc"] != 0:
        return {"ok": False, "reason": f"in-process pass failed ({rec['rc']}): {rec['stderr']}"}
    with open(out_file, encoding="utf-8") as fh:
        result = json.load(fh)
    result["ok"] = True
    return result


def _per_layer(jobs, runner, doc_paths, seconds, oracles, workdir) -> dict:
    py = sys.executable
    startup = _median_launch(runner, [py, "-m", "gcdcensus.cli", "check", str(doc_paths[0])])
    bare = _median_launch(runner, [py, "-c", "pass"])
    imported = _median_launch(runner, [py, "-c", "import gcdcensus"])
    jobs_file = workdir / "jobs.json"
    jobs_file.write_text(json.dumps([{"id": j["id"], "argv": _cli(doc_paths[j["id"]], j)[3:]} for j in jobs]))

    traced, untraced, records, lost = [], [], [], []
    absent: set[str] = set()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if time.perf_counter() >= runner.deadline:
            break
        for is_traced, bucket in ((True, traced), (False, untraced)):
            result = _in_process_pass(runner, workdir, jobs_file, is_traced, len(traced) + len(untraced))
            if not result["ok"]:
                lost.append({"reason": result["reason"], "ok": False})
                continue
            for rec in result["jobs"]:
                rec.update(name=jobs[rec["id"]]["name"], traced=is_traced)
            records.extend(result["jobs"])
            absent.update(result["absent"])
            bucket.append(result)
    # a pass that died takes all its jobs with it
    attempted = len(records) + len(jobs) * len(lost)
    failed = _verify(jobs, records, oracles) + len(jobs) * len(lost)
    spans = [p["spans"] for p in traced]
    totals = [tracer.layer_totals(s) for s in spans]

    def med(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def inclusive(name):
        return med(t["inclusive"].get(name, 0.0) for t in totals)

    def own(name):
        return med(t["self"].get(name, 0.0) for t in totals)

    def count(key):
        return med(t["counts"].get(key, 0) for t in totals)

    def job_total(passes):
        return med(sum(j["seconds"] for j in p["jobs"]) for p in passes)

    traced_records = [r for r in records if r.get("traced")]
    metrics = {
        "cli.startup_s": (startup, "s"),
        "cli.import_s": (imported - bare, "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "admissibility.check_s": (inclusive("admissibility.is_admissible"), "s"),
        "model.find_cover_s": (inclusive("model.find_cover"), "s"),
        "model.cover_size": (count("cover_size"), "count"),
        "model.subset_masks": (count("subset_masks"), "count"),
        "padic.local_view_s": (inclusive("padic.local_view"), "s"),
        "density.factor_poly_s": (inclusive("density.generic_factor_polynomial"), "s"),
        "density.local_factor_s": (inclusive("density.local_factor"), "s"),
        "density.local_factor_calls": (count("local_factor_calls"), "count"),
        "density.product_s": (own("density.constant"), "s"),
        "density.tail_c": (med(med(t["tails"]) for t in totals if t["tails"]), "count"),
        "density.rel_width": (_rel_width(jobs, traced_records) if traced_records else 0.0, "ratio"),
        "primes.sieve_s": (inclusive("primes.prime_blocks"), "s"),
        "primes.primes": (count("primes"), "count"),
        "counting.count_s": (inclusive("counting.count"), "s"),
        "counting.box_points": (count("box_points"), "count"),
        "trace.job_s": (job_total(traced), "s"),
        "trace.overhead_s": (job_total(traced) - job_total(untraced), "s"),
    }
    extra = {
        "passes": len(traced) + len(untraced),
        "absent_layers": sorted(absent),
        "fail_ratio": failed / attempted if attempted else 1.0,
        "spans": spans,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "records": records + lost, "extra": extra}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    jobs = corpus.build(workload, seed)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc_paths = {}
        for job in jobs:
            doc_paths[job["id"]] = workdir / f"job-{job['id']}.json"
            doc_paths[job["id"]].write_text(json.dumps(job["doc"]))
        oracles = _oracles(jobs)
        runner = Runner(deadline, workdir)
        try:
            if trace:
                result = _per_layer(jobs, runner, doc_paths, seconds, oracles, workdir)
            else:
                result = _end_to_end(jobs, runner, doc_paths, seconds, oracles)
        finally:
            runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(workload, seed, seconds, trace)
    result["jobs"] = [{k: v for k, v in j.items() if k != "doc"} for j in jobs]
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


def summary(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gcdcensus" / "cli.py").is_file():
        print(f"error: no gcdcensus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)

    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        summaries[workload] = summary(result)
        env = result["environment"]
        print(
            f"# {workload} seed={args.seed} python={env['python']} numpy={env['numpy']} "
            f"nproc={env['nproc']} cpu={env['cpu_model']!r} commit={env['git_commit']}"
        )
        for name, (value, unit) in result["metrics"].items():
            print(f"{workload:14s} {name:28s} {value:>16.6g} {unit}")
        for key in ("passes", "fail_ratio", "constant_rel_width", "absent_layers"):
            if key in result["extra"]:
                print(f"{workload:14s} {key:28s} {result['extra'][key]}")
        for rec in result["records"]:
            if not rec.get("ok", False):
                print(f"{workload:14s} FAILED {rec.get('name', '')}: {rec.get('reason')}", file=sys.stderr)
    print(json.dumps(summaries[args.workload] if args.workload != "all" else summaries))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One in-process pass over a corpus through `gcdcensus.cli.main`.

    python3 perfbench/tracer.py JOBS.json OUT.json [--traced]

JOBS.json is a list of {"id": ..., "argv": [...]}.  Each job runs through
`cli.main` with its output captured.  With --traced, timing wrappers are
first installed around the public functions each package module calls,
and every call becomes a span (name, start, end, parent, job).  Spans are
kept in memory and written to OUT.json with the job outputs at the end.

The wrappers replace every binding of a wrapped function in the package's
module namespaces, so calls made through `from .x import f` names are
seen too.  A function missing from the package (renamed or retired by a
refactor) is listed as absent instead of wrapped.

The span arithmetic used by run.py (self time, per-layer
totals) lives here as well, next to the names it depends on.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import traceback


def _cover_size(args, kwargs, result):
    return {"cover_size": len(result)}


def _poly_counts(args, kwargs, result):
    cover = args[1] if len(args) > 1 else kwargs["cover"]
    return {"subset_masks": 2 ** len(frozenset(cover)), "tail_c": result.tail_constant}


def _local_factor_counts(args, kwargs, result):
    view = args[0] if args else kwargs["view"]
    return {"subset_masks": 2 ** len(view.w_p), "local_factor_calls": 1}


def _box_points(args, kwargs, result):
    cs = args[0] if args else kwargs["cs"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"box_points": x**cs.k}


# (span name, module, function, counts taken from (args, kwargs, result),
#  whether the function is a generator timed per next() call)
TARGETS = (
    ("cli.main", "cli", "main", None, False),
    ("admissibility.is_admissible", "admissibility", "is_admissible", None, False),
    ("model.find_cover", "model", "find_cover", _cover_size, False),
    ("padic.local_view", "padic", "local_view", None, False),
    ("density.constant", "density", "constant", None, False),
    ("density.generic_factor_polynomial", "density", "generic_factor_polynomial", _poly_counts, False),
    ("density.local_factor", "density", "local_factor", _local_factor_counts, False),
    ("primes.prime_blocks", "primes", "prime_blocks", None, True),
    ("counting.count", "counting", "count", _box_points, False),
)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job = None

    def begin(self, name: str) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                try:
                    span.update(counts(args, kwargs, result))
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the signature moved on; keep the time, drop the count
                    span["uncounted"] = True
            return result

        return traced

    def wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.end(span)
                span["primes"] = len(item)
                yield item

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every TARGETS function; return the names found absent."""
    import gcdcensus.cli  # noqa: F401  (loads every package module)

    modules = [m for n, m in sys.modules.items() if n == "gcdcensus" or n.startswith("gcdcensus.")]
    absent = []
    for name, module, attr, counts, generator in TARGETS:
        original = getattr(sys.modules.get(f"gcdcensus.{module}"), attr, None)
        if original is None:
            absent.append(name)
            continue
        if generator:
            wrapper = tracer.wrap_generator(name, original)
        else:
            wrapper = tracer.wrap(name, original, counts)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    return absent


def run_pass(jobs: list[dict], traced: bool) -> dict:
    tracer = Tracer()
    absent = install(tracer) if traced else []
    from gcdcensus import cli

    results = []
    for job in jobs:
        tracer.job = job["id"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(job["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this job; the pass goes on
                traceback.print_exc()
                rc = -1
        seconds = time.perf_counter() - start
        results.append(
            {"id": job["id"], "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:], "seconds": seconds}
        )
    return {"absent": absent, "jobs": results, "spans": tracer.spans}


def self_time(spans: list[dict], index: int, children: dict[int, list[int]]) -> float:
    """Duration of spans[index] minus the part its child spans cover."""
    span = spans[index]
    covered = 0.0
    reach = span["start"]
    for c in sorted(children.get(index, ()), key=lambda c: spans[c]["start"]):
        lo, hi = max(spans[c]["start"], reach), min(spans[c]["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["end"] - span["start"] - covered


def layer_totals(spans: list[dict]) -> dict:
    """Per-pass totals: inclusive time per span name, self time of the
    job root and of density.constant, and summed counts."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    tails = []
    for i, s in enumerate(spans):
        inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + s["end"] - s["start"]
        if s["name"] in ("cli.main", "density.constant"):
            own[s["name"]] = own.get(s["name"], 0.0) + self_time(spans, i, children)
        for key in ("cover_size", "subset_masks", "local_factor_calls", "box_points", "primes"):
            if key in s:
                counts[key] = counts.get(key, 0) + s[key]
        if "tail_c" in s:
            tails.append(s["tail_c"])
    return {"inclusive": inclusive, "self": own, "counts": counts, "tails": tails}


def main(argv: list[str]) -> int:
    jobs_path, out_path = argv[0], argv[1]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    result = run_pass(jobs, traced="--traced" in argv[2:])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

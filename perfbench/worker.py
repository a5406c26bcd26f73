"""One fresh benchmark process: one workload run.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE ANSWERS SPANS

`run.py` starts this file with the BLAS/OpenMP thread counts already
fixed in the environment; it imports the library from `src/`.  Every
workload run gets its own OpenBLAS pool, its own `lru_cache` state and
its own peak RSS.  The last stdout line is a JSON summary; answers go to the
ANSWERS file one JSON line each, written after the question's clock
has stopped, so at most one answer is held in memory at a time.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
from calibrate import reference_seconds, scale
from workloads import REFERENCE_KIND, rounds, second_order_fits

SRC = Path(__file__).resolve().parents[1] / "src"

# A run stops on the first round boundary after SECONDS of question
# time once it has at least this many answers (so the 90th percentile
# has ten samples beyond it), or after HARD_STOP_FACTOR x SECONDS.
MIN_SAMPLES = 100
HARD_STOP_FACTOR = 3


def _answer(tp, q):
    """Ask one question through the public API and render it as the CLI does."""
    spec = tp.PotentialSpec(n=q.n, alpha=q.alpha, subtract_constant=q.subtract_constant)
    if q.kind == "oracle":
        validation = tp.validate_first_order(spec, q.lambda0, q.n, q.epsilons, q.cutoff)
        return tp.reports.json_text(validation.to_dict()), None
    report = tp.first_order_corrections(spec, q.lambda0, q.n)
    text = tp.reports.json_text(report.to_dict())
    if report.verdict != tp.perturbation.FULLY_SPLIT or not second_order_fits(
        q.lambda0, q.n, report.multiplicity
    ):
        return text, None
    second = tp.second_order_corrections(spec, q.lambda0, q.n, report.eigenvectors)
    beta = tp.eigenvector_correction_coefficients(spec, q.lambda0, q.n, report)
    return text, (second, beta)


def _ask(tp, q, tracer=None):
    """Time one question; returns the answer record (clock stopped before packing)."""
    span = None
    if tracer is not None:
        tracer.qid = q.qid
        span = tracer.open("question")
    start = time.perf_counter()
    try:
        text, extra = _answer(tp, q)
        error = None
    except Exception as exc:  # a failed question is counted, not fatal
        text, extra, error = None, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    record = {"question": q.to_dict(), "latency_s": latency, "text": text, "error": error}
    if extra is not None:
        second, beta = extra
        record["extra"] = {"cutoff": second.cutoff, "second_order": second.values.tolist(),
                           "beta": beta.tolist()}
    return record


def _loop(tp, stream, seconds, out, kind):
    """Closed loop, one client: the next question goes out when the last is answered.

    Between questions, off the clock, the machine-speed reference is
    timed; each record carries the scale from the references around it.
    """
    asked, busy = 0, 0.0
    wall0 = time.perf_counter()
    before = reference_seconds(kind)
    for batch in stream:
        for q in batch:
            record = _ask(tp, q)
            after = reference_seconds(kind)
            record["scale"] = scale(kind, before, after)
            before = after
            busy += record["latency_s"]
            asked += 1
            out.write(json.dumps(record) + "\n")
            if time.perf_counter() - wall0 > HARD_STOP_FACTOR * seconds:
                return busy
        if busy >= seconds and asked >= MIN_SAMPLES:
            break
    return busy


def _require_untraced():
    bound = tracing.installed_wrappers()
    if bound:
        raise RuntimeError(f"tracing wrappers bound during an untraced run: {bound}")


def _traced_loop(tp, stream, seconds, out, tracer, kind):
    """Ask each question traced and untraced, alternating which goes first.

    The untraced twin gives the tracing overhead on identical inputs;
    alternating the order keeps warm-cache effects out of the
    difference.  Returns the questions and, per question id, the
    machine-speed scale from the references around the pair.
    """
    asked, busy, untraced_busy, scales = [], 0.0, 0.0, {}
    wall0 = time.perf_counter()
    before = reference_seconds(kind)
    for batch in stream:
        for q in batch:
            for traced in ((True, False) if len(asked) % 2 == 0 else (False, True)):
                if traced:
                    uninstall = tracing.install(tracer, tp)
                    try:
                        record = _ask(tp, q, tracer)
                    finally:
                        uninstall()
                    busy_traced = record["latency_s"]
                else:
                    _require_untraced()
                    record = _ask(tp, q)
                    busy_untraced = record["latency_s"]
                out.write(json.dumps(record) + "\n")
            after = reference_seconds(kind)
            scales[q.qid] = scale(kind, before, after)
            before = after
            busy += busy_traced * scales[q.qid]
            untraced_busy += busy_untraced * scales[q.qid]
            asked.append(q)
            if time.perf_counter() - wall0 > 2 * HARD_STOP_FACTOR * seconds:
                return asked, busy, untraced_busy, scales
        if busy >= seconds:
            break
    return asked, busy, untraced_busy, scales


def _import_toruspert():
    sys.path.insert(0, str(SRC))
    import toruspert
    # The package does not import these two itself.
    import toruspert.fixtures  # noqa: F401
    import toruspert.reports  # noqa: F401
    if Path(toruspert.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"toruspert imported from {toruspert.__file__}, not from {SRC}")
    return toruspert


def _environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(workload, seed, seconds, traced, answers_path, spans_path):
    tp = _import_toruspert()
    import numpy as np

    fixture_diffs = [
        (name, d.row, d.col, d.printed, d.definitional)
        for name in tp.fixtures.available()
        for d in tp.fixtures.diff(tp.fixtures.get_case(name))
    ]
    summary = {"environment": _environment(np), "fixture_diffs": fixture_diffs}
    stream = rounds(workload, seed)
    with open(answers_path, "w", encoding="utf-8") as out:
        if not traced:
            _require_untraced()
            busy = _loop(tp, stream, seconds, out, REFERENCE_KIND[workload])
            summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            _require_untraced()
        else:
            tracer = tracing.Tracer()
            asked, busy, untraced_busy, scales = _traced_loop(
                tp, stream, seconds / 2.0, out, tracer, REFERENCE_KIND[workload])
            summary["trace"] = {
                "questions": len(asked),
                "busy_s": busy,
                "untraced_busy_s": untraced_busy,
                "self_s": tracer.self_times(scales),
                "calls": tracer.calls(),
                "counts": dict(tracer.counts),
            }
            with open(spans_path, "w", encoding="utf-8") as fh:
                fh.write(tracer.spans_json())
    summary["busy_s"] = busy
    print(json.dumps(summary))


def main(argv):
    if len(argv) != 6:
        sys.exit(__doc__)
    workload, seed, seconds, traced, answers, spans = argv
    run(workload, int(seed), float(seconds), traced == "1", answers, spans)


if __name__ == "__main__":
    main(sys.argv[1:])

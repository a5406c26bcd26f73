"""Benchmark for the toruspert library: seeded question streams, checked answers.

    python3 perfbench/run.py --workload split-dense --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` unmodified.  Each workload replays a seeded stream of user
questions against the public API, one process and one client in a
closed loop, and renders each answer as the CLI's JSON output does.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` a
separate traced run prints the per-layer metrics.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.

Set-up is measured in fresh processes (import plus one tiny split and
one tiny oracle question); the workload runs in another fresh process
so peak RSS, the OpenBLAS pool and the library's caches start clean.
Answers are checked against independent computations after the timed
loop.  See perfbench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import os

# Fixed before numpy is imported here or in any child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (imports numpy: thread counts are fixed above)
import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROBE = HERE / "probe.py"
OUT = ROOT / ".bench_out"
# Set-up probes run before and after the workload, so their median
# spans the run rather than one moment of the machine's load.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 3, 4
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "questions_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verified_frac": "fraction",
}

# name -> (unit, computed from array shapes rather than measured)
PER_LAYER_UNITS = {
    "lattice.eigenspace.calls": ("count", False),
    "lattice.eigenspace.self_s": ("s", False),
    "lattice.vectors": ("count", False),
    "lattice.lattice_box.self_s": ("s", False),
    "potential.coefficients": ("count", True),
    "perturbation.assemble_first_order.calls": ("count", False),
    "perturbation.assemble_first_order.self_s": ("s", False),
    "perturbation.assemblies_per_question": ("ratio", False),
    "perturbation.first_order_corrections.self_s": ("s", False),
    "perturbation.second_order_corrections.self_s": ("s", False),
    "perturbation.eigenvector_correction_coefficients.self_s": ("s", False),
    "perturbation.resolvent_terms": ("count", True),
    "eigensolve.small.calls": ("count", False),
    "eigensolve.small.self_s": ("s", False),
    "eigensolve.large.calls": ("count", False),
    "eigensolve.large.self_s": ("s", False),
    "eigensolve.work": ("count", True),
    "eigensolve.contract_failures": ("count", False),
    "galerkin.assemble_galerkin.calls": ("count", False),
    "galerkin.assemble_galerkin.self_s": ("s", False),
    "galerkin.matrix_bytes": ("B", True),
    "galerkin.validate_first_order.self_s": ("s", False),
    "galerkin.eigen_used_ratio": ("ratio", True),
    "reports.render.self_s": ("s", False),
    "reports.bytes": ("B", False),
    "setup.import_s": ("s", False),
    "setup.warmup_s": ("s", False),
    "trace.questions": ("count", False),
    "trace.overhead_questions_per_s": ("1/s", False),
}


def _child(script, args, timeout):
    """Run a fresh Python process; its last stdout line is a JSON summary."""
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script.name} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(count, probes):
    """Fresh processes from start to two answered questions, timed from outside.

    Each probe also records the scale that normalizes it by the mean of
    the references taken just before and just after it.
    """
    for _ in range(count):
        before = calibrate.reference_seconds("python")
        start = time.perf_counter()
        probe = _child(PROBE, [], timeout=60)
        probe["wall_s"] = time.perf_counter() - start
        probe["scale"] = calibrate.scale("python", before, calibrate.reference_seconds("python"))
        probes.append(probe)


def setup_medians(probes):
    return {
        "setup_s": statistics.median(p["wall_s"] * p["scale"] for p in probes),
        "setup_s_unnormalized": statistics.median(p["wall_s"] for p in probes),
        "setup.import_s": statistics.median(p["import_s"] * p["scale"] for p in probes),
        "setup.warmup_s": statistics.median(p["warmup_s"] * p["scale"] for p in probes),
        "passed": all(p["passed"] for p in probes),
    }


def _size_label(record):
    """Question size: split multiplicity (and second order) or oracle box size."""
    q = record["question"]
    if q["kind"] == "split":
        found = re.search(r'"multiplicity": (\d+)', record["text"] or "")
        m = found.group(1) if found else "?"
        return f"split n={q['n']} m={m}{' +2nd' if record.get('extra') else ''}"
    return f"oracle n={q['n']} N={(2 * q['cutoff'] + 1) ** q['n']} eps={len(q['epsilons'])}"


def _percentile(values, p):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer(trace, setup):
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    questions = trace["questions"]
    kept, computed = counts.get("galerkin.eigen_kept", 0), counts.get("galerkin.eigen_computed", 0)
    values = {
        "lattice.eigenspace.calls": calls.get("lattice.eigenspace", 0),
        "lattice.eigenspace.self_s": self_s.get("lattice.eigenspace", 0.0),
        "lattice.vectors": counts.get("lattice.vectors", 0),
        "lattice.lattice_box.self_s": self_s.get("lattice.lattice_box", 0.0),
        "potential.coefficients": counts.get("potential.coefficients", 0),
        "perturbation.assemble_first_order.calls": calls.get("perturbation.assemble_first_order", 0),
        "perturbation.assemble_first_order.self_s": self_s.get("perturbation.assemble_first_order", 0.0),
        "perturbation.assemblies_per_question":
            calls.get("perturbation.assemble_first_order", 0) / max(questions, 1),
        "perturbation.first_order_corrections.self_s":
            self_s.get("perturbation.first_order_corrections", 0.0),
        "perturbation.second_order_corrections.self_s":
            self_s.get("perturbation.second_order_corrections", 0.0),
        "perturbation.eigenvector_correction_coefficients.self_s":
            self_s.get("perturbation.eigenvector_correction_coefficients", 0.0),
        "perturbation.resolvent_terms": counts.get("perturbation.resolvent_terms", 0),
        "eigensolve.small.calls": calls.get("eigensolve.small", 0),
        "eigensolve.small.self_s": self_s.get("eigensolve.small", 0.0),
        "eigensolve.large.calls": calls.get("eigensolve.large", 0),
        "eigensolve.large.self_s": self_s.get("eigensolve.large", 0.0),
        "eigensolve.work": counts.get("eigensolve.work", 0),
        "eigensolve.contract_failures": counts.get("eigensolve.contract_failures", 0),
        "galerkin.assemble_galerkin.calls": calls.get("galerkin.assemble_galerkin", 0),
        "galerkin.assemble_galerkin.self_s": self_s.get("galerkin.assemble_galerkin", 0.0),
        "galerkin.matrix_bytes": counts.get("galerkin.matrix_bytes", 0),
        "galerkin.validate_first_order.self_s": self_s.get("galerkin.validate_first_order", 0.0),
        "galerkin.eigen_used_ratio": kept / computed if computed else 0.0,
        "reports.render.self_s":
            self_s.get("reports.json_text", 0.0) + self_s.get("reports.to_dict", 0.0),
        "reports.bytes": counts.get("reports.bytes", 0),
        "setup.import_s": setup["setup.import_s"],
        "setup.warmup_s": setup["setup.warmup_s"],
        "trace.questions": questions,
        "trace.overhead_questions_per_s":
            questions / trace["busy_s"] - questions / trace["untraced_busy_s"],
    }
    return values


def _layer_shares(self_s):
    by_layer = Counter()
    for name, t in self_s.items():
        by_layer[name.split(".")[0]] += t
    total = sum(by_layer.values()) or 1.0
    return ", ".join(f"{k} {v:.3f} s ({100 * v / total:.1f}%)" for k, v in by_layer.most_common())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toruspert" / "__init__.py").is_file():
        print(f"error: no toruspert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2


    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    answers = OUT / f"answers-{tag}.jsonl"
    spans = OUT / f"spans-{tag}.json"

    probes = []
    probe_setup(SETUP_PROBES_BEFORE, probes)
    summary = _child(
        WORKER,
        [args.workload, str(args.seed), repr(args.seconds), str(args.trace),
         str(answers), str(spans)],
        timeout=WORKER_TIMEOUT_S,
    )
    probe_setup(SETUP_PROBES_AFTER, probes)
    setup = setup_medians(probes)

    failures = []
    fixture = check.check_fixture_diffs(summary["fixture_diffs"])
    if fixture:
        failures.append(("setup.fixtures", fixture))
    if not setup["passed"]:
        failures.append(("setup.oracle", "set-up oracle question did not pass"))
    latencies, raw, verified, sizes = [], [], 0, defaultdict(list)
    rounds = set()
    with open(answers, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            reason = check.check_answer(record)
            raw.append(record["latency_s"])
            latency = record["latency_s"] * record.get("scale", 1.0)
            latencies.append(latency)
            rounds.add(record["question"]["qid"].split(".")[0])
            if reason is None:
                verified += 1
            else:
                failures.append((record["question"]["qid"], reason))
            sizes[_size_label(record)].append(latency)
    answers.unlink()
    attempted = len(latencies) + 2  # the two set-up checks count as attempted
    env = summary["environment"]

    print(f"info workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"info python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"nproc={env['nproc']} affinity={env['affinity']} threads={env['threads']}")
    print("info sizes (count, median latency): " + ", ".join(
        f"{k} x{len(v)} {statistics.median(v):.3g} s" for k, v in sorted(sizes.items())))
    print(f"info questions={len(latencies)} rounds={len(rounds)}; "
          f"latency samples={len(latencies)}, "
          f"{len(latencies) - int(0.9 * len(latencies))} at or beyond the 90th percentile")
    for qid, reason in failures[:10]:
        print(f"failed {qid}: {reason}")

    if args.trace:
        trace = summary["trace"]
        values = per_layer(trace, setup)
        for name, (unit, computed) in PER_LAYER_UNITS.items():
            print(f"layer {name} = {values[name]:.6g} {unit}{' (computed)' if computed else ''}")
        print(f"info self time by layer: {_layer_shares(trace['self_s'])}")
        print(f"info tracing overhead: traced {trace['questions'] / trace['busy_s']:.4f} 1/s, "
              f"untraced {trace['questions'] / trace['untraced_busy_s']:.4f} 1/s "
              "on the same questions")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER_UNITS.items()}
    else:
        failed_questions = len(latencies) - verified
        values = {
            "questions_per_s": verified / sum(latencies),
            "latency_p50_s": _percentile(latencies, 50),
            "latency_p90_s": _percentile(latencies, 90),
            "peak_rss_mb": summary["peak_rss_mb"],
            "setup_s": setup["setup_s"],
            "verified_frac": verified / len(latencies),
        }
        for name, unit in END_TO_END_UNITS.items():
            print(f"metric {name} = {values[name]:.6g} {unit}")
        print(f"info unnormalized: questions_per_s = {verified / summary['busy_s']:.6g} 1/s, "
              f"latency_p50_s = {_percentile(raw, 50):.6g} s, "
              f"latency_p90_s = {_percentile(raw, 90):.6g} s, "
              f"setup_s = {setup['setup_s_unnormalized']:.6g} s")
        print(f"info failed_frac = {failed_questions / len(latencies):.6g} "
              f"({failed_questions} of {len(latencies)} questions)")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

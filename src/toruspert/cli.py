"""Command-line interface.

Subcommands cover the full pipeline: spectrum queries (multiplicity,
representations, spectrum), first-order splitting (split), the
truncation-based validation oracle (oracle), and the bundled reference
matrices (paper-repro).  Machine formats (JSON with a `schema` field,
CSV) are byte-deterministic for identical invocations.

Exit codes: 0 success (for `split`: fully split), 2 usage or argument
error, 3 `split` ran but the eigenvalue did not fully split, 4 the
oracle could not isolate the perturbed cluster (coupling too large),
5 the eigensolver did not converge or missed its accuracy contract,
6 the requested computation exceeds the desk-scale resource limits.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fixtures, galerkin, lattice, perturbation, reports
from .eigensolve import symmetric_eigen
from .errors import CouplingTooLargeError, EigensolverError, ResourceLimitError
from .potential import PotentialSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_SPLIT = 3
EXIT_COUPLING = 4
EXIT_EIGENSOLVER = 5
EXIT_RESOURCE = 6


def _parse_alpha(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise ValueError(f"could not parse alpha list {text!r}") from None
    if not values:
        raise ValueError("alpha list is empty")
    return values


def _parse_eps(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse epsilon list {text!r}") from None
    if not values:
        raise ValueError("epsilon list is empty")
    return values


def _read_config(path: str) -> dict[str, str]:
    """Flat key-value file: `key = value` lines, `#` comments."""
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


# argparse dest -> config-file key / flag name
_FLAG_NAMES = {"lambda0": "lambda"}


class _Options:
    """Merge of command-line flags over config-file values over defaults."""

    def __init__(self, args):
        self.args = args
        self.cfg = _read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name, default=None, parse=None):
        value = getattr(self.args, name, None)
        key = _FLAG_NAMES.get(name, name)
        if value is None and key in self.cfg:
            raw = self.cfg[key]
            value = parse(raw) if parse else raw
        if value is None:
            value = default
        return value

    def require(self, name, parse=None):
        value = self.get(name, None, parse)
        if value is None:
            flag = _FLAG_NAMES.get(name, name).replace("_", "-")
            raise ValueError(f"missing required option --{flag}")
        return value


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spec_from(opts: _Options, n: int) -> PotentialSpec:
    alpha = opts.require("alpha", _parse_alpha)
    diag = opts.get("diag", "zero")
    if diag not in ("zero", "one"):
        raise ValueError(f"--diag must be 'zero' or 'one', got {diag!r}")
    return PotentialSpec(n=n, alpha=alpha, subtract_constant=(diag == "zero"))


def cmd_multiplicity(args) -> int:
    opts = _Options(args)
    lambda0 = int(opts.require("lambda0", int))
    n = int(opts.require("n", int))
    m = lattice.multiplicity(lambda0, n)
    if args.json:
        payload = {
            "schema": 1,
            "kind": "multiplicity",
            "lambda": lambda0,
            "n": n,
            "multiplicity": m,
            "representations": [list(r) for r in lattice.representations(lambda0, n)],
        }
        _emit(reports.json_text(payload), args.output)
    else:
        _emit(f"{m}\n", args.output)
    return EXIT_OK


def cmd_representations(args) -> int:
    opts = _Options(args)
    lambda0 = int(opts.require("lambda0", int))
    n = int(opts.require("n", int))
    reps = lattice.representations(lambda0, n)
    if args.json:
        payload = {
            "schema": 1,
            "kind": "representations",
            "lambda": lambda0,
            "n": n,
            "multiplicity": lattice.multiplicity(lambda0, n),
            "representations": [list(r) for r in reps],
        }
        _emit(reports.json_text(payload), args.output)
    else:
        lines = [" ".join(str(c) for c in r) for r in reps]
        _emit("\n".join(lines) + ("\n" if lines else ""), args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    opts = _Options(args)
    lambda_max = int(opts.require("max", int))
    n = int(opts.require("n", int))
    rows = lattice.spectrum_up_to(lambda_max, n)
    if args.json:
        payload = {
            "schema": 1,
            "kind": "spectrum",
            "n": n,
            "max": lambda_max,
            "rows": [[lam, m] for lam, m in rows],
        }
        _emit(reports.json_text(payload), args.output)
    else:
        _emit("".join(f"{lam} {m}\n" for lam, m in rows), args.output)
    return EXIT_OK


def cmd_split(args) -> int:
    opts = _Options(args)
    lambda0 = int(opts.require("lambda0", int))
    n = int(opts.require("n", int))
    spec = _spec_from(opts, n)
    gap_tol = opts.get("gap_tol", None, float)
    report = perturbation.first_order_corrections(
        spec, lambda0, n, gap_tolerance=gap_tol
    )
    fmt = opts.get("format", "pretty")
    if fmt == "json":
        _emit(reports.json_text(report.to_dict()), args.output)
    elif fmt == "csv":
        _emit(reports.corrections_csv(report.corrections), args.output)
    elif fmt == "pretty":
        lines = [
            f"lambda0={lambda0} n={n} multiplicity={report.multiplicity} "
            f"alpha={','.join(f'{a:g}' for a in spec.alpha)} "
            f"diag={'zero' if spec.subtract_constant else 'one'}",
            "corrections: " + " ".join(f"{c:.6g}" for c in report.corrections),
            f"min_gap: {report.min_gap:.6g}" if np.isfinite(report.min_gap)
            else "min_gap: n/a (multiplicity 1)",
            f"gap_tolerance: {report.gap_tolerance:.6g}",
            "clusters: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in report.clusters),
            f"verdict: {report.verdict}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        raise ValueError(f"unknown format {fmt!r} (pretty, json, csv)")
    if args.matrix_csv:
        _emit(reports.matrix_csv(report.matrix.entries), args.matrix_csv)
    return EXIT_OK if report.verdict == perturbation.FULLY_SPLIT else EXIT_NOT_SPLIT


def cmd_oracle(args) -> int:
    opts = _Options(args)
    lambda0 = int(opts.require("lambda0", int))
    n = int(opts.require("n", int))
    spec = _spec_from(opts, n)
    eps = opts.require("eps", _parse_eps)
    cutoff = int(opts.require("cutoff", int))
    validation = galerkin.validate_first_order(
        spec, lambda0, n, eps, cutoff, check_cutoff=not args.no_cutoff_check
    )
    if args.plot_data:
        _emit(reports.fan_csv(validation.fan_rows()), args.plot_data)
    if args.json:
        _emit(reports.json_text(validation.to_dict()), args.output)
    else:
        lines = [
            f"lambda0={lambda0} n={n} multiplicity={validation.multiplicity} "
            f"cutoff={cutoff}",
            "first_order: " + " ".join(f"{c:.6g}" for c in validation.first_order),
        ]
        for row in validation.rows:
            if row.d is None:
                lines.append(f"eps={row.epsilon:.6g}: exact degeneracy (trivial)")
            else:
                lines.append(
                    f"eps={row.epsilon:.6g}: max_error={row.max_error:.6g} "
                    "d=" + " ".join(f"{x:.6g}" for x in row.d)
                )
        for t in validation.trend:
            ratio = "n/a" if t.ratio is None else f"{t.ratio:.6g}"
            lines.append(
                f"trend {t.eps_high:.6g}->{t.eps_low:.6g}: ratio={ratio} "
                f"band=[{t.band_low:.6g},{t.band_high:.6g}] ok={t.ok}"
            )
        if validation.cutoff_shift is not None:
            lines.append(
                f"cutoff_check: shift={validation.cutoff_shift:.6g} "
                f"converged={validation.cutoff_converged}"
            )
        if validation.formal_warning:
            lines.append(f"warning: {validation.formal_warning}")
        lines.append(f"passed: {validation.passed}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _case_payload(case, mode):
    payload = {
        "schema": 1,
        "kind": "paper_repro",
        "which": case.name,
        "mode": mode,
        "lambda0": case.lambda0,
        "n": case.n,
        "alpha": list(case.alpha),
        "subtract_constant": case.subtract_constant,
        "notes": list(case.notes),
    }
    if mode == "fixture":
        w, _ = symmetric_eigen(case.fixture)
        payload["matrix"] = [[float(x) for x in row] for row in case.fixture]
        payload["eigenvalues"] = [float(x) for x in w]
        payload["printed_eigenvalues"] = list(case.printed_eigenvalues)
    elif mode == "definition":
        M = fixtures.definition_matrix(case)
        w, _ = symmetric_eigen(M)
        payload["matrix"] = [[float(x) for x in row] for row in M]
        payload["eigenvalues"] = [float(x) for x in w]
        payload["printed_eigenvalues"] = list(case.printed_eigenvalues)
    else:
        payload["discrepancies"] = [
            {"row": d.row, "col": d.col, "printed": d.printed,
             "definitional": d.definitional}
            for d in fixtures.diff(case)
        ]
    return payload


def _case_pretty(payload):
    lines = [
        f"matrix {payload['which']} (lambda0={payload['lambda0']}, n={payload['n']}, "
        f"alpha={','.join(f'{a:g}' for a in payload['alpha'])}, "
        f"diag={'zero' if payload['subtract_constant'] else 'one'}) "
        f"mode={payload['mode']}"
    ]
    if "matrix" in payload:
        for row in payload["matrix"]:
            lines.append("  " + " ".join(f"{x:11.6g}" for x in row))
        lines.append(
            "eigenvalues: " + " ".join(f"{x:.6g}" for x in payload["eigenvalues"])
        )
        lines.append(
            "printed:     "
            + " ".join(f"{x:.6g}" for x in payload["printed_eigenvalues"])
        )
    if "discrepancies" in payload:
        if payload["discrepancies"]:
            for d in payload["discrepancies"]:
                lines.append(
                    f"  entry ({d['row']}, {d['col']}): printed {d['printed']:.6g} "
                    f"vs definition {d['definitional']:.6g}"
                )
        else:
            lines.append("  print and definition agree entrywise")
    for note in payload["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def cmd_paper_repro(args) -> int:
    which = args.which.upper()
    names = list(fixtures.available()) if which == "ALL" else [which]
    payloads = [_case_payload(fixtures.get_case(name), args.mode) for name in names]
    if args.json:
        out = payloads[0] if len(payloads) == 1 else {
            "schema": 1, "kind": "paper_repro", "mode": args.mode,
            "cases": payloads,
        }
        _emit(reports.json_text(out), args.output)
    else:
        _emit("".join(_case_pretty(p) for p in payloads), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toruspert",
        description=(
            "Degenerate eigenvalue splitting of the flat torus Laplacian "
            "under a Gaussian trigonometric potential."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--output", help="write the main output to this file")
        if config:
            p.add_argument("--config", help="flat key-value config file (flags win)")

    p = sub.add_parser("multiplicity", help="eigenvalue multiplicity")
    p.add_argument("--lambda", dest="lambda0", type=int, help="eigenvalue")
    p.add_argument("--n", type=int, help="torus dimension")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_multiplicity)

    p = sub.add_parser("representations", help="canonical sum-of-squares tuples")
    p.add_argument("--lambda", dest="lambda0", type=int, help="eigenvalue")
    p.add_argument("--n", type=int, help="torus dimension")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_representations)

    p = sub.add_parser("spectrum", help="(eigenvalue, multiplicity) list")
    p.add_argument("--n", type=int, help="torus dimension")
    p.add_argument("--max", type=int, help="largest eigenvalue to include")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("split", help="first-order splitting of one eigenvalue")
    p.add_argument("--lambda", dest="lambda0", type=int, help="degenerate eigenvalue")
    p.add_argument("--n", type=int, help="torus dimension")
    p.add_argument("--alpha", type=_parse_alpha, help="comma-separated decay weights")
    p.add_argument("--diag", choices=("zero", "one"),
                   help="constant-term convention (default zero)")
    p.add_argument("--gap-tol", dest="gap_tol", type=float,
                   help="cluster tolerance (default 1e-9 scaled)")
    p.add_argument("--format", choices=("pretty", "json", "csv"))
    p.add_argument("--matrix-csv", dest="matrix_csv",
                   help="also write the secular matrix as CSV to this file")
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("oracle", help="validate first order against a truncation")
    p.add_argument("--lambda", dest="lambda0", type=int, help="degenerate eigenvalue")
    p.add_argument("--n", type=int, help="torus dimension")
    p.add_argument("--alpha", type=_parse_alpha, help="comma-separated decay weights")
    p.add_argument("--diag", choices=("zero", "one"))
    p.add_argument("--eps", type=_parse_eps,
                   help="comma-separated couplings, strictly descending")
    p.add_argument("--cutoff", type=int, help="truncation box half-width")
    p.add_argument("--no-cutoff-check", action="store_true",
                   help="skip the cutoff+2 robustness rerun")
    p.add_argument("--plot-data", dest="plot_data",
                   help="write fan-plot CSV (epsilon,branch_index,eigenvalue)")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("paper-repro", help="bundled reference matrices")
    p.add_argument("--which", required=True,
                   help="matrix name (A, B, C, D, F, G) or 'all'")
    p.add_argument("--mode", choices=("fixture", "definition", "diff"),
                   default="fixture")
    p.add_argument("--json", action="store_true")
    common(p, config=False)
    p.set_defaults(func=cmd_paper_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CouplingTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COUPLING
    except EigensolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EIGENSOLVER
    except ResourceLimitError as exc:
        # Caught before ValueError, which it subclasses for library callers.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

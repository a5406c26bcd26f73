"""Command-line interface.

Subcommands cover the full pipeline: spectrum queries (multiplicity,
representations, spectrum), first-order splitting (split), the
truncation-based validation oracle (oracle), and the bundled reference
matrices (paper-repro).  Machine formats (JSON with a `schema` field,
CSV) are byte-deterministic for identical invocations.

argparse is the only option model.  `--config FILE` reads `key = value`
lines; each line means the flag `--key=value` of the same subcommand
(`gap_tol` for `--gap-tol`), placed before the command-line flags, so
those win.  A key that is not a flag taking a value exits 2 naming its
file and line.

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


def _floats(noun: str):
    """argparse `type=` for a comma-separated list of floats (the `noun` list)."""
    def parse(text: str) -> tuple[float, ...]:
        values = tuple(float(p) for p in text.split(",") if p.strip() != "")
        if not values:
            raise ValueError(f"{noun} list is empty")
        return values
    parse.__name__ = noun  # argparse names it in "invalid alpha value"
    return parse


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags.

    A key names a flag of `parser` that takes a value (`lambda` for
    `--lambda`, `gap_tol` for `--gap-tol`); `#` starts a comment.  Any
    other key, including on/off flags and `config`, is a usage error
    that names its line.  One `--key=value` token per line keeps a value
    that starts with `-` from being read as a flag.
    """
    # argparse lists a parser's options only in its `_actions`.
    keys = {s for a in parser._actions if a.nargs != 0 for s in a.option_strings}
    keys.discard("--config")
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if flag not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            flags.append(f"{flag}={value}")
    return flags


def _require(args, *dests: str) -> None:
    """Usage error for the first of `dests` that neither flags nor config set."""
    for dest in dests:
        if getattr(args, dest) is None:
            flag = "lambda" if dest == "lambda0" else dest
            raise ValueError(f"missing required option --{flag}")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spec_from(args) -> PotentialSpec:
    return PotentialSpec(
        n=args.n, alpha=args.alpha, subtract_constant=(args.diag == "zero")
    )


def cmd_multiplicity(args) -> int:
    _require(args, "lambda0", "n")
    lambda0, n = args.lambda0, args.n
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
    _require(args, "lambda0", "n")
    lambda0, n = args.lambda0, args.n
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
    _require(args, "max", "n")
    lambda_max, n = args.max, args.n
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
    _require(args, "lambda0", "n", "alpha")
    lambda0, n = args.lambda0, args.n
    spec = _spec_from(args)
    report = perturbation.first_order_corrections(
        spec, lambda0, n, gap_tolerance=args.gap_tol
    )
    if args.format == "json":
        _emit(reports.json_text(report.to_dict()), args.output)
    elif args.format == "csv":
        _emit(reports.corrections_csv(report.corrections), args.output)
    else:
        lines = [
            f"lambda0={lambda0} n={n} multiplicity={report.multiplicity} "
            f"alpha={','.join(f'{a:g}' for a in spec.alpha)} diag={args.diag}",
            "corrections: " + " ".join(f"{c:.6g}" for c in report.corrections),
            f"min_gap: {report.min_gap:.6g}" if np.isfinite(report.min_gap)
            else "min_gap: n/a (multiplicity 1)",
            f"gap_tolerance: {report.gap_tolerance:.6g}",
            "clusters: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in report.clusters),
            f"verdict: {report.verdict}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    if args.matrix_csv:
        _emit(reports.matrix_csv(report.matrix.entries), args.matrix_csv)
    return EXIT_OK if report.verdict == perturbation.FULLY_SPLIT else EXIT_NOT_SPLIT


def cmd_oracle(args) -> int:
    _require(args, "lambda0", "n", "alpha", "eps", "cutoff")
    lambda0, n, cutoff = args.lambda0, args.n, args.cutoff
    validation = galerkin.validate_first_order(
        _spec_from(args), lambda0, n, args.eps, cutoff,
        check_cutoff=not args.no_cutoff_check,
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
    if mode == "diff":
        payload["discrepancies"] = [
            {"row": d.row, "col": d.col, "printed": d.printed,
             "definitional": d.definitional}
            for d in fixtures.diff(case)
        ]
        return payload
    M = case.fixture if mode == "fixture" else fixtures.definition_matrix(case)
    w, _ = symmetric_eigen(M)
    payload["matrix"] = [[float(x) for x in row] for row in M]
    payload["eigenvalues"] = [float(x) for x in w]
    payload["printed_eigenvalues"] = list(case.printed_eigenvalues)
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
            p.set_defaults(parser=p)

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
    p.add_argument("--alpha", type=_floats("alpha"),
                   help="comma-separated decay weights")
    p.add_argument("--diag", choices=("zero", "one"), default="zero",
                   help="constant-term convention (default zero)")
    p.add_argument("--gap-tol", dest="gap_tol", type=float,
                   help="cluster tolerance (default 1e-9 scaled)")
    p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p.add_argument("--matrix-csv", dest="matrix_csv",
                   help="also write the secular matrix as CSV to this file")
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("oracle", help="validate first order against a truncation")
    p.add_argument("--lambda", dest="lambda0", type=int, help="degenerate eigenvalue")
    p.add_argument("--n", type=int, help="torus dimension")
    p.add_argument("--alpha", type=_floats("alpha"),
                   help="comma-separated decay weights")
    p.add_argument("--diag", choices=("zero", "one"), default="zero")
    p.add_argument("--eps", type=_floats("epsilon"),
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The file's flags go before the command line's, which win.
            config = _config_flags(args.parser, args.config)
            args = parser.parse_args([args.command, *config, *argv[1:]])
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

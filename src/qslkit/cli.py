"""Command-line front end for the sweep and validation harness.

Subcommands emit plot-ready CSV files (one header line, 17-significant-
digit scientific notation, ``NA`` for unreached targets) or, for
``validate``, a pass/fail report with exit status 0/1.  Rejected input
and failed runs end with one ``qslkit: error: ...`` line on stderr and
exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import harness
from .generators import PositivityLossError
from .memory import RiccatiBlowupError


def _columns(header: list) -> str:
    return f"Columns: {', '.join(header)}."


#: Figure subcommands: name -> (help, description).  Each runs the harness function of that name.
FIGURES = {
    "fig1": (
        "memoryless dephasing: tau_Q and tau_B vs Q for three initial angles",
        _columns(harness.FIG1_HEADER) + " gamma_ratio is inf (memoryless).",
    ),
    "fig2": (
        "finite-memory dephasing: tau_Q vs Q across memory ratios (theta = pi/5)",
        _columns(harness.SWEEP_HEADER) + " The fidelity-bound column uses the "
        "time-averaged denominator variant (the literal initial-state "
        "denominator vanishes for this kernel). Targets are shared across "
        "memory ratios.",
    ),
    "fig3": (
        "finite-memory dissipation: tau_Q vs Q across memory ratios (theta = pi/4)",
        _columns(harness.SWEEP_HEADER) + " tau_q_closed is NA: dissipation has no closed-form tau_Q. "
        "Targets are shared across memory ratios.",
    ),
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--grid-points", type=int, default=None, help="propagation grid points")
    p.add_argument("--tau-max", type=float, default=None, help="propagation horizon (units of inverse coupling)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qslkit",
        description=(
            "Quantumness-generation speed limits: figure sweeps, scenario runs, "
            "scaling study, and the randomized validation suite. Units: hbar = 1, "
            "coupling rate Gamma = 1 by default, times in 1/Gamma, memory rate "
            "given as the ratio gamma/Gamma."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, description) in FIGURES.items():
        _add_run_flags(sub.add_parser(name, help=help_text, description=description))

    ghz = sub.add_parser(
        "ghz",
        help="cat-state scaling of the witness and its bound with qubit count",
        description=_columns(harness.GHZ_HEADER),
    )
    ghz.add_argument("--out", default=None, help="output CSV path")
    ghz.add_argument("--theta", type=float, default=math.pi / 8.0, help="initial angle (default pi/8 = %(default)s)")
    ghz.add_argument("--beta", type=float, default=1e-6, help="single-qubit decay exponent (<= 1e-4)")
    ghz.add_argument("--n-max", type=int, default=5, help="largest qubit count (<= 12)")
    ghz.add_argument("--q-fix", type=float, default=1e-6, help="fixed quantumness target for tau_Q(n)")

    rows = harness.MODEL_FIELDS
    common = [name for name in rows["stirap"] if all(name in names for names in rows.values())]
    run = sub.add_parser(
        "run",
        help="run one scenario from a JSON config",
        description=f"Config keys of every model: {', '.join(common)}. Further keys by model: "
        + "; ".join(f"{m}: {', '.join(n for n in names if n not in common)}" for m, names in rows.items())
        + ". gamma is the ratio gamma/Gamma. A key its model does not take must keep its default; "
        f"unknown keys are rejected. CSV columns: {', '.join(harness.RUN_HEADER)}.",
    )
    _add_run_flags(run)
    run.add_argument("--config", required=True, help="path to the JSON scenario config")
    run.add_argument("--report", default=None, help="optional JSON report path")

    val = sub.add_parser(
        "validate",
        help="randomized property suite; exit status reflects pass/fail",
    )
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--cases", type=int, default=200)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: exit quietly as SIGPIPE would, with
        # stdout on devnull so the flush at exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, RiccatiBlowupError, PositivityLossError, OSError) as err:
        print(f"qslkit: error: {err}", file=sys.stderr)
        return 2


def _status_stream(*outputs):
    """Where to print status lines: stderr when an output (``None`` skipped) is the file stdout writes to, else stdout.

    The two are the same file when they have the same device and inode
    (``--out /dev/stdout``, ``--report /dev/stdout``, or a path the shell
    redirected stdout to); a ``sys.stdout`` with no file descriptor, such
    as a capture object, is not an output.
    """
    try:
        ours = os.fstat(sys.stdout.fileno())
        same = any(os.path.samestat(ours, os.stat(out)) for out in outputs if out is not None)
    except (AttributeError, OSError, ValueError):
        return sys.stdout
    return sys.stderr if same else sys.stdout


def _run(args: argparse.Namespace) -> int:
    overrides = {
        name: getattr(args, name)
        for name in ("grid_points", "tau_max")
        if getattr(args, name, None) is not None
    }

    if args.command in FIGURES:
        out = args.out or f"{args.command}.csv"
        rows = getattr(harness, args.command)(out, **overrides)
        print(f"wrote {out} ({len(rows)} rows)", file=_status_stream(out))
        return 0

    if args.command == "ghz":
        out = args.out or "ghz.csv"
        report = harness.ghz_scaling(args.theta, args.beta, args.n_max, out, q_fix=args.q_fix)
        status = _status_stream(out)
        print(f"wrote {out} ({len(report.rows)} rows)", file=status)
        print(
            json.dumps(
                {
                    "slope_q": report.slope_q,
                    "slope_sqrt_q": report.slope_sqrt_q,
                    "slope_tau_q": report.slope_tau_q,
                    "note": report.note,
                },
                indent=2,
                allow_nan=False,
            ),
            file=status,
        )
        return 0

    if args.command == "run":
        out = args.out or "run.csv"
        for name, path in (("out_path", out), ("report_path", args.report)):
            if path is not None:  # no output may overwrite the config
                harness._check_two_files("config", args.config, name, path)
        cfg = dataclasses.replace(harness.ScenarioConfig.from_json(args.config), **overrides)
        result = harness.run_to_files(cfg, out, report_path=args.report)
        print(
            f"wrote {out} ({len(result.reports)} targets, q_max={result.diagnostics['q_max']:.6g})",
            file=_status_stream(out, args.report),
        )
        return 0

    if args.command == "validate":
        report = harness.validate(seed=args.seed, cases=args.cases)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

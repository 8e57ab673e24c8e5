"""Command-line interface over the urn analysis and simulation library.

Four subcommands:

- ``analyze``   exact drift/noise/equilibrium analysis and limit prediction
- ``simulate``  reproducible replicate runs written as CSV
- ``verify``    simulate, then test the finals against the prediction
- ``selftest``  exact identity and oracle cross-check suites

Exit status: 0 on success (including an inconclusive verification),
1 on usage or input errors, 2 when verification finds an inconsistency or a
selftest suite fails.

Each call parses its argv once, with the subcommand's own parser when the
argv starts with its name (:func:`_parse`). JSON output is written by
``_json_text``, which is :func:`polyurn.analysis.json_text`: one walk over the
report's records that gives the bytes of ``json.dumps(indent=2)`` and a
newline. The dict API of the library is that text read back. Output files are
rewritten in place with the encoded text handed to ``os.write`` whole
(:func:`_write_text`). The simulation engine (:mod:`polyurn.montecarlo`) is
imported only by ``simulate`` and ``verify``, the exact one-step reference
(:mod:`polyurn.oracle`) only by ``selftest``, and ``multiprocessing`` only by
runs with ``--jobs`` of 2 or more.
"""

from __future__ import annotations

import argparse
import functools
import json
import locale
import math
import os
import random
import stat
import sys
from fractions import Fraction

from .analysis import (
    ModelAnalysis,
    analysis_payload,
    analyze_model,
    prediction_from_dict,
)
from .analysis import json_text as _json_text  # the name the benchmark's tracer rebinds
from .ratpoly import RatPoly, RootRecord, format_rational, parse_rational
from .urns import (
    TWO_DRAW,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    UrnModel,
    drift_for,
    error_for,
    model_from_dict,
    model_to_dict,
    one_draw_model,
    two_draw_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2

#: A model with a scaled integer longer than this may derive a number too long to print.
LONG_MODEL_BITS = 4096


class CliError(Exception):
    """A user-facing input problem (exit status 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Model construction from flags
# ---------------------------------------------------------------------------

def _rational(text: str, flag: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from exc


def _comma_rationals(text: str, count: int, flag: str) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise CliError(f"{flag} needs {count} comma-separated values, got {len(parts)}")
    return [_rational(p, flag) for p in parts]


def _read_json_file(path: str, what: str, build):
    """``build`` of the JSON in the UTF-8 file at ``path``; each failure is one input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"invalid {what} file {path}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise CliError(f"invalid {what} file {path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid {what} file {path}: {exc}") from exc


def model_from_args(args: argparse.Namespace) -> UrnModel:
    given = [args.one_draw is not None, args.two_draw is not None, args.model is not None]
    if sum(given) != 1:
        raise CliError("specify exactly one of --one-draw, --two-draw, --model")
    try:
        if args.model is not None:
            if args.w0 is not None or args.b0 is not None or args.sampling is not None:
                raise CliError(
                    "--model files carry their own starting counts and sampling; "
                    "do not combine with --w0/--b0/--sampling"
                )
            return _read_json_file(args.model, "model", model_from_dict)
        counts = {"w0": args.w0, "b0": args.b0}
        start = {name: _rational(v, f"--{name}") for name, v in counts.items() if v is not None}
        if args.one_draw is not None:
            if args.sampling == "without":
                raise CliError("--sampling without applies only to pair-draw models")
            return one_draw_model(_comma_rationals(args.one_draw, 4, "--one-draw"), **start)
        entries = _comma_rationals(args.two_draw, 6, "--two-draw")
        sampling = WITH_REPLACEMENT if args.sampling == "with" else WITHOUT_REPLACEMENT
        return two_draw_model(entries, **start, sampling=sampling)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, overwriting an existing file in place.

    The text is encoded once, in the encoding ``open`` would use, and handed
    to ``os.write`` on the file descriptor: one system call, or a few more if
    the kernel takes fewer bytes than asked. The file is opened without
    ``O_TRUNC`` and trimmed to the written length afterwards, because ext4,
    XFS and btrfs start writeback on the ``close`` of a file truncated to
    zero: a forced flush on every rewrite. Inode, mode and hard links are
    kept. Only a regular file is trimmed, so devices such as ``/dev/null``
    still work.
    """
    data = text.encode(locale.getpreferredencoding(False))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _rendered(render, value) -> str:
    """``render(value)``, with a derived number too long to print as an input error."""
    try:
        return render(value)
    except ValueError as exc:  # the interpreter's limit on int-to-str digits
        raise CliError(f"a derived number is too long to print: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _root_text(root: RootRecord) -> str:
    return format_rational(root.value) if root.value is not None else f"~{root.approx!r}"


def _render_analysis_text(analysis: ModelAnalysis) -> str:
    model = analysis.model
    data = model_to_dict(model)
    kind = model.matrix.rule
    if model.kind == TWO_DRAW:
        kind += f" ({model.sampling} replacement)"
    matrix = "; ".join(" ".join(row) for row in data["matrix"])
    lines = [
        f"model: {kind} urn, matrix [{matrix}], start W={data['w0']} B={data['b0']}",
        f"drift: {analysis.drift.to_text()}",
        f"noise floor: {analysis.noise.error.to_text()}",
    ]
    if analysis.attainable is not None:
        lo = format_rational(analysis.attainable.lower)
        hi = format_rational(analysis.attainable.upper)
        lines.append(f"attainable proportions: [{lo}, {hi}]")
    if analysis.degenerate is not None:
        lines.append(f"inactive-row case: {analysis.degenerate.case_id}")
    if analysis.equilibria:
        for eq in analysis.equilibria:
            lines.append(f"equilibrium {_root_text(eq.root)}: {eq.classification.value}")
    else:
        lines.append("equilibria: none (flat or reduced drift)")
    pred = analysis.prediction
    lines.append(f"prediction: {pred.kind.value}")
    if pred.beta_params is not None:
        a, b = pred.beta_params
        lines.append(f"  limit law Beta({format_rational(a)}, {format_rational(b)})")
    for p in pred.points:
        cite = f" [{p.theorem}]" if p.theorem else ""
        lines.append(f"  candidate {_root_text(p.root)}: {p.verdict}{cite}")
    for p in pred.excluded:
        lines.append(f"  excluded {_root_text(p.root)} [{p.theorem}]")
    for note in pred.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    model = model_from_args(args)
    v = model.scaled
    if max(v.scale, *v.entries, v.w0, v.b0).bit_length() > LONG_MODEL_BITS:
        # Every report prints the drift and the noise polynomial: one that
        # cannot is refused before its roots are isolated.
        for poly in (drift_for(model), error_for(model)):
            _rendered(RatPoly.coefficient_strings, poly)
    analysis = analyze_model(model)
    if args.format == "text":
        _emit(args, _rendered(_render_analysis_text, analysis))
    else:
        _emit(args, _rendered(lambda a: _json_text(analysis_payload(a)), analysis))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _render_histogram(bins: tuple[int, ...]) -> list[str]:
    peak = max(bins) or 1
    width = 1.0 / len(bins)
    lines = []
    for i, count in enumerate(bins):
        bar = "#" * round(40 * count / peak)
        lines.append(f"  [{i * width:.2f}, {(i + 1) * width:.2f}) {count:6d} {bar}")
    return lines


def _check_run_flags(args: argparse.Namespace) -> None:
    """Refuse a ``simulate`` or ``verify`` flag out of range, naming the flag.

    The library refuses these values too, but in its own terms
    (``parallelism``, ``trajectory_stride``, steps per replicate, base seed,
    clustering radius), so they are checked here before it sees them.
    """
    if args.steps < 0:
        raise CliError("--steps must be nonnegative")
    if args.steps == 0 and args.command == "verify":
        raise CliError("--steps must be at least 1 to verify")
    if args.replicates < 1:
        raise CliError("--replicates must be at least 1")
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    if getattr(args, "trajectory_stride", 1) < 1:
        raise CliError("--trajectory-stride must be at least 1")
    if not 0 <= args.seed < 2**64:
        raise CliError("--seed must be in [0, 2**64)")
    if getattr(args, "radius", None) is not None and not 0 < args.radius < math.inf:
        raise CliError("--radius must be a positive finite number")


def cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import (
        SimConfig, finals_csv_lines, finals_summary, run_replicates, trajectory_csv_lines)

    model = model_from_args(args)
    _check_run_flags(args)
    try:
        config = SimConfig(
            model=model,
            steps=args.steps,
            replicates=args.replicates,
            base_seed=args.seed,
            record_trajectory=args.trajectory_out is not None,
            trajectory_stride=args.trajectory_stride,
        )
        results = run_replicates(config, parallelism=args.jobs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.out:
        _write_text(args.out, "\n".join(finals_csv_lines(results)) + "\n")
    if args.trajectory_out:
        _write_text(args.trajectory_out, "\n".join(trajectory_csv_lines(results)) + "\n")

    if args.format == "csv":
        if not args.out:
            sys.stdout.write("\n".join(finals_csv_lines(results)) + "\n")
        return EXIT_OK
    mean, bins = finals_summary([r.final_z for r in results])
    if args.format == "json":
        payload = {
            "replicates": args.replicates,
            "steps": args.steps,
            "seed": args.seed,
            "mean_final": mean,
            "histogram": bins,
        }
        sys.stdout.write(_json_text(payload))
    else:
        lines = [
            f"replicates: {args.replicates}  steps: {args.steps}  seed: {args.seed}",
            f"mean final proportion: {mean!r}",
            "final-proportion histogram:",
        ]
        lines.extend(_render_histogram(bins))
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _render_report_text(report: VerificationReport) -> str:
    lines = [
        f"prediction: {report.prediction.kind.value}",
        f"replicates: {report.replicates}  steps: {report.steps}  seed: {report.seed}",
    ]
    for entry in report.allowed_points:
        lines.append(
            f"  allowed near {entry['approx']!r}: {entry['count']} replicates ({entry['verdict']})"
        )
    for entry in report.excluded_points:
        lines.append(f"  excluded near {entry['approx']!r}: {entry['count']} replicates")
    if report.unassigned is not None:
        lines.append(f"  outside every cluster: {report.unassigned}")
    if report.ks_statistic is not None:
        lines.append(
            f"  KS statistic {report.ks_statistic!r} vs threshold {report.ks_threshold!r}"
        )
    lines.append(f"verdict: {report.verdict}")
    for reason in report.reasons:
        lines.append(f"  reason: {reason}")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    from .montecarlo import DEFAULT_RADIUS, VERDICT_INCONSISTENT, verify

    model = model_from_args(args)
    _check_run_flags(args)
    prediction = None
    if args.prediction:
        prediction = _read_json_file(args.prediction, "prediction", prediction_from_dict)
    try:
        report = verify(
            model,
            prediction,
            steps=args.steps,
            replicates=args.replicates,
            base_seed=args.seed,
            parallelism=args.jobs,
            radius=DEFAULT_RADIUS if args.radius is None else args.radius,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.format == "text":
        _emit(args, _rendered(_render_report_text, report))
    else:
        _emit(args, _rendered(_json_text, report))
    return EXIT_INCONSISTENT if report.verdict == VERDICT_INCONSISTENT else EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(args: argparse.Namespace) -> int:
    from . import oracle

    rng = random.Random(args.seed)
    failed = False
    for name, suite in oracle.SUITES:
        stream = random.Random(rng.getrandbits(64))
        try:
            n = suite(stream)
        except oracle.SuiteFailure as exc:
            failed = True
            print(f"suite {name}: FAIL ({exc})")
        else:
            print(f"suite {name}: PASS ({n} checks)")
    return EXIT_INCONSISTENT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model")
    group.add_argument("--one-draw", metavar="a,b,c,d", help="single-draw matrix entries")
    group.add_argument(
        "--two-draw", metavar="a,b,c,d,e,f", help="pair-draw matrix entries (rows WW, WB, BB)"
    )
    group.add_argument("--model", metavar="FILE", help="model described by a JSON file")
    group.add_argument("--w0", metavar="R", help="starting white count (rational)")
    group.add_argument("--b0", metavar="R", help="starting black count (rational)")
    group.add_argument(
        "--sampling",
        choices=["with", "without"],
        help="pair-draw sampling mode (default: without replacement)",
    )


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("simulation")
    group.add_argument("--steps", type=int, default=10_000, help="steps per replicate")
    group.add_argument("--replicates", type=int, default=100, help="number of replicates")
    group.add_argument("--seed", type=int, default=0, help="base seed for all replicate streams")
    group.add_argument("--jobs", type=int, default=1,
                       help="processes running replicates, this one included")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built once per process."""
    parser = _Parser(prog="polyurn", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("analyze", help="exact analysis and limit prediction")
    _add_model_flags(p)
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = commands.add_parser("simulate", help="run replicates and write finals as CSV")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument("--out", metavar="PATH", help="finals CSV path")
    p.add_argument("--trajectory-out", metavar="PATH", help="trajectory CSV path")
    p.add_argument(
        "--trajectory-stride", type=int, default=100, metavar="N",
        help="record every N-th step of each trajectory",
    )
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("verify", help="test simulated finals against the prediction")
    _add_model_flags(p)
    _add_sim_flags(p)
    p.add_argument(
        "--prediction", metavar="FILE",
        help="JSON prediction to test (default: derive it from the model)",
    )
    p.add_argument(
        "--radius", type=float,
        help="clustering radius around predicted points",
    )
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("selftest", help="run the exact identity suites")
    p.add_argument("--seed", type=int, default=0, help="seed for the random matrices")
    p.set_defaults(func=cmd_selftest)

    return parser, commands.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one argparse pass where it can be.

    The top-level parser hands everything after a subcommand's name to that
    subcommand's parser, so an ``argv`` that starts with one goes straight
    to it; what it leaves over is reported by the top-level parser, as
    ``parse_args`` would. Any other ``argv`` (empty, ``-h``, an unknown
    command) goes through the top-level parser.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one ``polyurn`` command line (``sys.argv[1:]`` by default) and return its exit status.

    The argv is parsed once, by the subcommand's own parser when it names
    one (see :func:`_parse`). Input problems print one ``polyurn: error:``
    line and return 1; argparse's usage errors keep their usage line.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except CliError as exc:
        print(f"polyurn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        if exc.code is None:
            return EXIT_OK
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

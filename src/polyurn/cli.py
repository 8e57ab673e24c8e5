"""Command-line interface over the urn analysis and simulation library.

Four subcommands:

- ``analyze``   exact drift/noise/equilibrium analysis and limit prediction
- ``simulate``  reproducible replicate runs written as CSV
- ``verify``    simulate, then test the finals against the prediction
- ``selftest``  exact identity and oracle cross-check suites

Exit status: 0 on success (including an inconclusive verification),
1 on usage or input errors, 2 when verification finds an inconsistency or a
selftest suite fails.

JSON output is exactly the bytes of ``json.dumps(payload, indent=2)`` and a
newline. The simulation engine (:mod:`polyurn.montecarlo`) is imported only
by ``simulate`` and ``verify``, and ``multiprocessing`` only by runs with
``--jobs`` of 2 or more.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import stat
import sys
from fractions import Fraction

from . import urns
from .analysis import (
    ModelAnalysis,
    analysis_to_dict,
    analyze_model,
    prediction_from_dict,
)
from .ratpoly import RatPoly, RootRecord, format_rational, parse_rational
from .urns import (
    ONE_DRAW,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    UrnModel,
    UrnState,
    load_model,
    one_draw_model,
    two_draw_model,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2


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
            try:
                return load_model(args.model)
            except OSError as exc:
                raise CliError(f"cannot read model file {args.model}: {exc}") from exc
            except (ValueError, KeyError, TypeError) as exc:
                raise CliError(f"invalid model file {args.model}: {exc}") from exc
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

    The file is opened without ``O_TRUNC`` and trimmed to the written length
    afterwards, because ext4, XFS and btrfs start writeback on the ``close``
    of a file truncated to zero: a forced flush on every rewrite. Inode, mode
    and hard links are kept. Only a regular file is trimmed, so devices such
    as ``/dev/null`` still work.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", newline="") as fh:
            fh.write(text)
            fh.flush()
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > fh.buffer.tell():
                os.ftruncate(fd, fh.buffer.tell())
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


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, written by :func:`_write_json`.

    The stdlib's indenting encoder is pure Python and builds closures that
    refer to each other, so every call would leave a reference cycle for the
    cyclic collector.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the indented JSON of ``value`` to ``out``; ``newline`` opens a line at its depth.

    Plain ``str``, ``dict`` with ``str`` keys, ``list``, ``tuple``, ``int``,
    finite ``float``, ``True``, ``False`` and ``None`` are written here.
    Anything else (NaN and infinities, subclasses, other keys, values JSON
    cannot hold) is ``json.dumps(value, indent=2)`` moved to this depth, with
    its output or its exception unchanged.
    """
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out.append(separator)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif kind is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", newline))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _matrix_text(model: UrnModel) -> str:
    rows = []
    entries = [format_rational(e) for e in model.matrix.entries]
    for i in range(0, len(entries), 2):
        rows.append(" ".join(entries[i : i + 2]))
    return "[" + "; ".join(rows) + "]"


def _root_text(root: RootRecord) -> str:
    return format_rational(root.value) if root.value is not None else f"~{root.approx!r}"


def _render_analysis_text(analysis: ModelAnalysis) -> str:
    model = analysis.model
    kind = "single-draw" if model.kind == ONE_DRAW else f"pair-draw ({model.sampling} replacement)"
    lines = [
        f"model: {kind} urn, matrix {_matrix_text(model)}, "
        f"start W={format_rational(model.w0)} B={format_rational(model.b0)}",
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
    analysis = analyze_model(model)
    if args.format == "text":
        _emit(args, _rendered(_render_analysis_text, analysis))
    else:
        _emit(args, _json_text(_rendered(analysis_to_dict, analysis)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _render_histogram(bins: tuple[int, ...]) -> list[str]:
    peak = max(bins) if any(bins) else 1
    width = 1.0 / len(bins)
    lines = []
    for i, count in enumerate(bins):
        bar = "#" * round(40 * count / peak) if peak else ""
        lines.append(f"  [{i * width:.2f}, {(i + 1) * width:.2f}) {count:6d} {bar}")
    return lines


def cmd_simulate(args: argparse.Namespace) -> int:
    from .montecarlo import (
        SimConfig, finals_csv_lines, finals_summary, run_replicates, trajectory_csv_lines)

    model = model_from_args(args)
    if args.replicates < 1:
        raise CliError("--replicates must be at least 1")
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
    csv_text = "\n".join(finals_csv_lines(results)) + "\n"
    if args.out:
        _write_text(args.out, csv_text)
    if args.trajectory_out:
        _write_text(args.trajectory_out, "\n".join(trajectory_csv_lines(results)) + "\n")

    mean, bins = finals_summary([r.final_z for r in results])
    if args.format == "csv":
        if not args.out:
            sys.stdout.write(csv_text)
    elif args.format == "json":
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
        f"replicates: {report.replicates}  steps: {report.steps}  seed: {report.base_seed}",
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
    from .montecarlo import DEFAULT_RADIUS, VERDICT_INCONSISTENT, VerificationReport, verify

    model = model_from_args(args)
    prediction = None
    if args.prediction:
        try:
            with open(args.prediction, encoding="utf-8") as fh:
                prediction = prediction_from_dict(json.load(fh))
        except OSError as exc:
            raise CliError(f"cannot read prediction file {args.prediction}: {exc}") from exc
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CliError(f"invalid prediction file {args.prediction}: {exc}") from exc
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
        _emit(args, _json_text(_rendered(VerificationReport.to_dict, report)))
    return EXIT_INCONSISTENT if report.verdict == VERDICT_INCONSISTENT else EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

class _SuiteFailure(Exception):
    pass


def _random_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.randint(1, 3))


def _random_one_matrix(rng: random.Random):
    return urns.OneDrawMatrix.from_entries([_random_entry(rng) for _ in range(4)])


def _random_two_matrix(rng: random.Random):
    return urns.TwoDrawMatrix.from_entries([_random_entry(rng) for _ in range(6)])


def _random_state(rng: random.Random) -> UrnState:
    white = Fraction(rng.randint(4, 80), rng.randint(1, 2))
    black = Fraction(rng.randint(4, 80), rng.randint(1, 2))
    return UrnState(white, black, 0)


def _suite_boundary_drift_signs(rng: random.Random) -> int:
    checks = 0
    for _ in range(200):
        f1 = urns.drift_one(_random_one_matrix(rng))
        f2 = urns.drift_two(_random_two_matrix(rng))
        for f in (f1, f2):
            if f.evaluate(Fraction(0)) < 0 or f.evaluate(Fraction(1)) > 0:
                raise _SuiteFailure(f"drift {f.to_text()} points outward at a boundary")
            checks += 2
    return checks


def _suite_bias_numerator_columns(rng: random.Random) -> int:
    checks = 0
    for _ in range(200):
        m = _random_two_matrix(rng)
        p1, p2, p3 = urns.cond_iv_polys(m)
        if not (p1 + p2 + p3).is_zero:
            raise _SuiteFailure(f"bias numerators of {m.entries} do not cancel")
        checks += 1
    return checks


def _suite_variance_decomposition(rng: random.Random) -> int:
    x = RatPoly((Fraction(0), Fraction(1)))
    one = RatPoly((Fraction(1),))
    checks = 0
    for _ in range(200):
        m = _random_two_matrix(rng)
        noise = urns.error_two(m)
        b_poly = noise.diff_ww_bb
        c_poly = noise.diff_wb_bb
        a_poly = noise.second_diff
        if a_poly != b_poly - 2 * c_poly:
            raise _SuiteFailure(f"second difference relation fails for {m.entries}")
        quartic = (
            2 * x * x * (a_poly + c_poly) * (a_poly + c_poly)
            + x * (one - x) * b_poly * b_poly
            + 2 * (one - x) * (one - x) * c_poly * c_poly
        )
        if noise.variance_factor != quartic or noise.error != x * (one - x) * quartic:
            raise _SuiteFailure(f"variance decomposition fails for {m.entries}")
        model = urns.UrnModel(
            urns.TWO_DRAW, m, Fraction(2), Fraction(2), urns.WITH_REPLACEMENT
        )
        state = _random_state(rng)
        moments = urns.cond_moments_oracle(state, model)
        z = state.proportion_white
        if moments.mean_u != 0 or noise.error.evaluate(z) != moments.mean_u_sq:
            raise _SuiteFailure(f"enumerated noise moments disagree for {m.entries}")
        checks += 3
    return checks


def _suite_single_draw_bias_oracle(rng: random.Random) -> int:
    checks = 0
    for _ in range(500):
        m = _random_one_matrix(rng)
        state = _random_state(rng)
        model = urns.UrnModel(urns.ONE_DRAW, m, Fraction(1), Fraction(1), urns.WITH_REPLACEMENT)
        moments = urns.cond_moments_oracle(state, model)
        if urns.cond_iv_closed_form_one(state, m) != moments.mean_u_over_next_t:
            raise _SuiteFailure(f"single-draw bias closed form disagrees for {m.entries}")
        checks += 1
    return checks


def _suite_pair_bias_oracle(rng: random.Random) -> int:
    checks = 0
    for _ in range(500):
        m = _random_two_matrix(rng)
        state = _random_state(rng)
        for sampling in (urns.WITHOUT_REPLACEMENT, urns.WITH_REPLACEMENT):
            model = urns.UrnModel(urns.TWO_DRAW, m, Fraction(2), Fraction(2), sampling)
            moments = urns.cond_moments_oracle(state, model)
            if sampling == urns.WITHOUT_REPLACEMENT:
                if urns.mean_noise_residual_two(state, m) != moments.mean_u:
                    raise _SuiteFailure(f"pair mean residual disagrees for {m.entries}")
            elif moments.mean_u != 0:
                raise _SuiteFailure(f"pair noise not centered for {m.entries}")
            if urns.cond_iv_closed_form_two(state, m, sampling) != moments.mean_u_over_next_t:
                raise _SuiteFailure(f"pair bias closed form disagrees for {m.entries}")
            checks += 2
    return checks


def _suite_degenerate_identities(rng: random.Random) -> int:
    checks = 0
    for _ in range(50):
        for zero_rows in ((0, 1), (4, 5), (2, 3)):
            entries = [_random_entry(rng) + 1 for _ in range(6)]
            for idx in zero_rows:
                entries[idx] = Fraction(0)
            model = two_draw_model(entries, 2, 2)
            for _ in range(20):
                point = Fraction(rng.randint(1, 99), 100)
                if urns.degenerate_identity_gap(model, point) != 0:
                    raise _SuiteFailure(
                        f"reduction identity fails for {tuple(entries)} at {point}"
                    )
                checks += 1
    return checks


_SUITES = (
    ("boundary-drift-signs", _suite_boundary_drift_signs),
    ("pair-bias-numerator-columns", _suite_bias_numerator_columns),
    ("pair-variance-decomposition", _suite_variance_decomposition),
    ("single-draw-bias-oracle", _suite_single_draw_bias_oracle),
    ("pair-bias-oracle", _suite_pair_bias_oracle),
    ("inactive-row-reductions", _suite_degenerate_identities),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failed = False
    for name, suite in _SUITES:
        stream = random.Random(rng.getrandbits(64))
        try:
            n = suite(stream)
        except _SuiteFailure as exc:
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
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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

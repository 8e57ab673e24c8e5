"""Seeded inputs for the three benchmark workloads.

Every input is a list of ``polyurn`` argv vectors built from the workload
seed alone. Output paths point into a work directory that the caller owns.

- ``analyze-corpus``: ``analyze --format json`` over a stratified random
  corpus plus the six fixed corpus models. The analysis layers do the work.
- ``verify-integer``: ``verify --jobs 2`` on integer models, so the integer
  kernels and the process pool do the work.
- ``simulate-fractional``: ``simulate --jobs 1`` with finals and trajectory
  CSVs on fractional pair-without-replacement models, which take the generic
  ``Fraction`` stepping path.

Each simulation workload also analyzes its models, as a user does before
simulating, so every end-to-end metric exists on every workload. It does so
``ANALYZE_REPEATS`` times per round, so that the few models' latencies rest
on enough samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("analyze-corpus", "verify-integer", "simulate-fractional")
SIZES = ("full", "tiny")
#: Analyze calls per model and round on the two simulation workloads.
ANALYZE_REPEATS = 3


@dataclass(frozen=True)
class ModelSpec:
    """One urn model as the CLI receives it."""

    draw: str  # "one" or "two"
    entries: tuple[str, ...]
    w0: str | None = None
    b0: str | None = None
    sampling: str | None = None  # pair draws only; None means "without"

    def argv(self) -> list[str]:
        out = ["--one-draw" if self.draw == "one" else "--two-draw", ",".join(self.entries)]
        if self.w0 is not None:
            out += ["--w0", self.w0]
        if self.b0 is not None:
            out += ["--b0", self.b0]
        if self.sampling is not None:
            out += ["--sampling", self.sampling]
        return out

    @property
    def label(self) -> str:
        text = f"{self.draw}[{','.join(self.entries)}]"
        if self.w0 is not None or self.b0 is not None:
            text += f"w{self.w0 or '-'}b{self.b0 or '-'}"
        return text + (f"/{self.sampling}" if self.sampling else "")


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and what its outputs are checked against."""

    label: str
    command: str  # "analyze", "verify" or "simulate"
    model: ModelSpec
    argv: tuple[str, ...]
    files: dict[str, Path] = field(default_factory=dict)
    replicates: int = 0
    steps: int = 0
    stride: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    size: str
    ops: tuple[Op, ...]  # one round, in call order
    models: int  # distinct models per round

    @property
    def replicate_steps(self) -> int:
        return sum(op.replicates * op.steps for op in self.ops)


def _spec(draw, entries, w0=None, b0=None, sampling=None) -> ModelSpec:
    return ModelSpec(draw, tuple(str(e) for e in entries),
                     None if w0 is None else str(w0), None if b0 is None else str(b0), sampling)


#: The fixed corpus models: one of each model kind the analysis handles.
CORPUS_FIXED = (
    _spec("one", [3, 1, 1, 2]),
    _spec("two", [15, 3, 4, 1, 3, 21], 5, 2),
    _spec("two", [15, 3, 4, 1, 3, 21], 5, 2, "with"),
    _spec("two", ["15/2", 3, 4, 1, 3, 21], 5, 2),
    _spec("two", [2, 1, 1, 1, 1, 0]),
    _spec("two", [0, 0, 1, 1, 1, 1]),
)

VERIFY_MODELS = (
    _spec("two", [15, 3, 4, 1, 3, 21], 5, 2),
    _spec("two", [15, 3, 4, 1, 3, 21], 5, 2, "with"),
    _spec("two", [35, 9, 1, 1, 3, 21], 12, 2),
    _spec("two", [2, 1, 1, 1, 1, 0]),
    _spec("one", [3, 1, 1, 2]),
    _spec("one", [1, 0, 0, 1], 2, 1),
    _spec("two", [0, 0, 1, 1, 1, 1]),
)

#: The last model is the bistable model with every entry halved. It has an
#: excluded equilibrium, so the exclusion checks run on this workload too.
FRACTIONAL_MODELS = (
    _spec("two", ["15/2", 3, 4, 1, 3, 21], 5, 2),
    _spec("two", ["9/2", 1, 2, 3, 1, 7]),
    _spec("two", ["15/2", "3/2", 2, "1/2", "3/2", "21/2"], 5, 2),
)

#: Per-size parameters: corpus size, verify-integer and simulate-fractional
#: replicates x steps, and the trajectory stride.
_PARAMS = {
    "full": {"corpus": 192, "int_reps": 60, "int_steps": 16000,
             "frac_reps": 4, "frac_steps": 2000, "stride": 5},
    "tiny": {"corpus": 12, "int_reps": 40, "int_steps": 4000,
             "frac_reps": 2, "frac_steps": 150, "stride": 5},
}


def _rational_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def random_model(rng: random.Random, index: int) -> ModelSpec:
    """Corpus model ``index``; its stratum depends on the index only.

    Strata cycle through one-draw, pair-with, one-draw and pair-without
    models, then through integer and fractional entries; every fourth block
    of eight models gets an inactive (all-zero) row. All-zero matrices are
    redrawn, since the CLI rejects them.

    Half the models are one-draw models because ``analyze`` latency has two
    modes: models whose equilibria are all rational take about 3-9 ms, and
    models with an irrational root, which must be isolated, about 13-16 ms.
    Almost every one-draw model and about 30% of pair models fall in the
    cheap mode. So about 64% of the corpus is cheap and the median latency
    sits inside the cheap mode. Were the cheap share near half, the median
    would fall into the gap between the modes and move with each seed's
    draw (see README.md).
    """
    draw, sampling = (("one", None), ("two", "with"), ("one", None), ("two", "without"))[index % 4]
    fractional = (index // 4) % 2 == 1
    zero_row = (index // 8) % 4 == 3
    size = 4 if draw == "one" else 6
    while True:
        if fractional:
            entries = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(size)]
        else:
            entries = [Fraction(rng.randint(0, 9)) for _ in range(size)]
        if zero_row:
            row = rng.randrange(size // 2)
            entries[2 * row] = entries[2 * row + 1] = Fraction(0)
        if any(entries):
            break
    if fractional:
        w0 = Fraction(rng.randint(2, 12), rng.randint(1, 2))
        b0 = Fraction(rng.randint(2, 12), rng.randint(1, 2))
    else:
        w0, b0 = Fraction(rng.randint(2, 6)), Fraction(rng.randint(2, 6))
    return _spec(draw, [_rational_text(e) for e in entries], _rational_text(w0),
                 _rational_text(b0), sampling)


def corpus(seed: int, size: int) -> list[ModelSpec]:
    rng = random.Random(seed)
    return list(CORPUS_FIXED) + [random_model(rng, i) for i in range(size)]


def _analyze_op(index: int, model: ModelSpec, work: Path) -> Op:
    out = work / f"analyze-{index:03d}.json"
    argv = ("analyze", "--format", "json", "--out", str(out), *model.argv())
    return Op(f"analyze:{model.label}", "analyze", model, argv, {"out": out})


def _sim_op(command: str, index: int, model: ModelSpec, work: Path, *, jobs: int,
            replicates: int, steps: int, seed: int, stride: int = 0) -> Op:
    files = {"out": work / f"{command}-{index:03d}.out"}
    argv = [command, "--jobs", str(jobs), "--replicates", str(replicates), "--steps", str(steps),
            "--seed", str(seed), "--format", "json", "--out", str(files["out"])]
    if stride:
        files["trajectory"] = work / f"{command}-{index:03d}.trajectory.csv"
        argv += ["--trajectory-out", str(files["trajectory"]), "--trajectory-stride", str(stride)]
    return Op(f"{command}:{model.label}", command, model, tuple(argv + model.argv()), files,
              replicates, steps, stride)


def build(name: str, seed: int, size: str, work: Path) -> Workload:
    """The ops of one round of workload ``name``; the same seed gives the same ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    p = _PARAMS[size]
    rng = random.Random(f"{name}:{seed}")
    if name == "analyze-corpus":
        models = corpus(seed, p["corpus"])
        ops = [_analyze_op(i, m, work) for i, m in enumerate(models)]
    else:
        if name == "verify-integer":
            models, command, jobs, reps, steps, stride = (
                VERIFY_MODELS, "verify", 2, p["int_reps"], p["int_steps"], 0)
        else:
            models, command, jobs, reps, steps, stride = (
                FRACTIONAL_MODELS, "simulate", 1, p["frac_reps"], p["frac_steps"], p["stride"])
        sims = [_sim_op(command, i, m, work, jobs=jobs, replicates=reps, steps=steps,
                        seed=rng.randrange(2**32), stride=stride)
                for i, m in enumerate(models)]
        analyzes = [_analyze_op(i, m, work) for i, m in enumerate(models * ANALYZE_REPEATS)]
        # A few analyze calls precede each simulation, cycling through the
        # models, so that each model's latency samples the whole round and
        # not one burst of it: the host's speed changes every few seconds.
        ops = []
        for k, sim in enumerate(sims):
            ops += analyzes[k * ANALYZE_REPEATS:(k + 1) * ANALYZE_REPEATS] + [sim]
    return Workload(name, seed, size, tuple(ops), len(models))

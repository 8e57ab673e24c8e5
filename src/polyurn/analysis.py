"""Whole-model analysis: from an urn specification to a limit prediction.

This module wires the exact building blocks together. Given a model it
derives the drift and noise polynomials, classifies the drift's equilibria
(or the reduced drift's, when a matrix row is inactive), handles the
closed-form families (zero drift; one active row), and decides every
classified root's verdict in one table, where the noise-floor exclusion
(``theorem:pem``), the touchpoint verdict (``theorem:pem2``) and the
promotion of a lone undecided root need every matrix row active, and a
reduced drift's root of multiplicity at least 2 at ``y = 1`` is borderline.
The result is one :class:`~polyurn.stability.LimitPrediction` plus a
JSON-ready report.

Every object of that report is a record written out as its fields in
declaration order, so a field added to one of these records becomes a JSON
key. Data meant only to explain a decision (the planned ``--explain``
output) therefore stays out of these records until that output adds an
opt-in.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .ratpoly import (
    INTERIOR,
    LEFT_BOUNDARY,
    RIGHT_BOUNDARY,
    RatPoly,
    Record,
    RootRecord,
    format_rational,
    parse_rational,
)
from .stability import (
    THEOREM_BOUNDARY_EXCLUSION,
    THEOREM_LIMIT_EXISTS,
    THEOREM_NOISE_FLOOR_EXCLUSION,
    THEOREM_PAIR_FLAT_CONTINUOUS,
    THEOREM_SINGLE_DRAW_LAW,
    THEOREM_STABLE_ATTRACTION,
    THEOREM_TOUCHPOINT_POSSIBLE,
    VERDICT_POSITIVE_PROBABILITY,
    VERDICT_TOUCHPOINT,
    VERDICT_UNIQUE,
    VERDICT_UNKNOWN,
    Equilibrium,
    EquilibriumClass,
    ExcludedPoint,
    LimitPrediction,
    PredictedPoint,
    PredictionKind,
    SAConditions,
    check_boundary_exclusion,
    check_noise_floor,
    classify_all,
)
from .urns import (
    ONE_DRAW,
    WITHOUT_REPLACEMENT,
    AttainableInterval,
    DegenerateReduction,
    ModelMeta,
    OneDrawNoise,
    TwoDrawNoise,
    UrnModel,
    active_white_ratios,
    attainable_interval,
    degenerate_reduce,
    drift_for,
    error_one,
    error_two,
    model_meta,
    model_to_dict,
)

__all__ = [
    "ModelAnalysis",
    "analysis_to_dict",
    "analyze_model",
    "predict_limit",
    "sa_conditions_for",
]


def _map_record(record: RootRecord, reduction: DegenerateReduction | None) -> RootRecord:
    """Send a reduced-variable root record back to the original proportion.

    A record whose bounds the map leaves in place comes back as it is, with
    its factor: every root in case 6, whose map is the identity, and a
    rational root at a fixed end (refined intervals hold neither 0 nor 1). A
    moved irrational root keeps an isolating interval but no factor.
    """
    if reduction is None:
        return record
    a, b = (reduction.to_original(end) for end in record.bounds)
    if (a, b) == record.bounds:
        return record
    if a == b:
        return RootRecord(record.multiplicity, value=a)
    return RootRecord(record.multiplicity, interval=(min(a, b), max(a, b)))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _predict_from_roots(
    meta: ModelMeta,
    drift: RatPoly,
    error_poly: RatPoly,
    equilibria: Sequence[Equilibrium],
    span: AttainableInterval,
    reduction: DegenerateReduction | None = None,
) -> LimitPrediction:
    """The verdict of every classified drift root, decided in one table.

    ``equilibria`` and ``span`` use the classified drift's variable: the
    proportion when every row is active (``reduction`` is None), else the
    reduced variable ``y``, whose roots are mapped back. The noise-floor
    exclusion, the touchpoint verdict and the promotion of a lone
    ``unknown`` candidate need every row active. A reduced root at ``y = 1``
    of multiplicity at least 2 is borderline and leaves the limit unsettled:
    in cases 4 and 5 that is the entry rule ``d = 0`` and ``f = 2c`` (entries
    reversed in case 5), and a case-6 drift has no such root, since it would
    need ``a = b = 0``.
    """
    full_support = reduction is None
    diverges = {
        LEFT_BOUNDARY: meta.white_count_diverges_at_zero,
        RIGHT_BOUNDARY: meta.black_count_diverges_at_one,
    }
    unsettled = False
    points: list[PredictedPoint] = []
    excluded: list[ExcludedPoint] = []
    for eq in equilibria:
        rec = eq.root
        cls = eq.classification
        mapped = _map_record(rec, reduction)
        verdict, theorem = VERDICT_UNKNOWN, None
        if reduction is not None and rec.value == 1 and rec.multiplicity > 1:
            # Neither exclusion nor retention is certified, whatever the exact
            # local sign says, and the chain of effective draws need not run
            # forever, so no "limit lies in this set" statement survives.
            unsettled = True
        elif cls is EquilibriumClass.STRICTLY_UNSTABLE:
            if mapped.location != INTERIOR:
                diverging = diverges[mapped.location]
                if check_boundary_exclusion(drift, error_poly, mapped.value, diverging):
                    theorem = THEOREM_BOUNDARY_EXCLUSION
            elif full_support and check_noise_floor(error_poly, rec):
                theorem = THEOREM_NOISE_FLOOR_EXCLUSION
            if theorem is not None:
                excluded.append(ExcludedPoint(mapped, cls, theorem))
                continue
        elif cls is EquilibriumClass.STABLE:
            if rec.within(span.lower, span.upper, strict=not span.closed_bounds):
                verdict, theorem = VERDICT_POSITIVE_PROBABILITY, THEOREM_STABLE_ATTRACTION
        elif full_support and rec.within(span.lower, span.upper, strict=True):  # touchpoint
            verdict, theorem = VERDICT_TOUCHPOINT, THEOREM_TOUCHPOINT_POSSIBLE
        points.append(PredictedPoint(mapped, cls, verdict, theorem))

    notes = () if full_support else (
        "inactive matrix rows: the analysis runs on the chain of effective draws "
        f"({reduction.variable_map})",
    )
    if unsettled:
        notes += ("a borderline boundary root leaves the long-run behaviour unsettled",)
    elif not points and full_support:
        notes = ("every drift root was excluded; no certified candidate remains",)
    elif len(points) == 1 and (full_support or points[0].verdict != VERDICT_UNKNOWN):
        only = points[0]
        points = [
            PredictedPoint(only.root, only.classification, VERDICT_UNIQUE, THEOREM_LIMIT_EXISTS)
        ]
    return LimitPrediction(
        kind=PredictionKind.POINT_MASS_SET if points and not unsettled else PredictionKind.UNKNOWN,
        points=tuple(points),
        excluded=tuple(excluded),
        notes=notes,
    )


def _predict_flat(model: UrnModel) -> LimitPrediction:
    """Identically zero drift: the exchangeable reinforcement families."""
    if model.w0 == 0 or model.b0 == 0:
        fixed = Fraction(0) if model.w0 == 0 else Fraction(1)
        return LimitPrediction(
            kind=PredictionKind.POINT_MASS_SET,
            points=(PredictedPoint(RootRecord(1, value=fixed), None, VERDICT_UNIQUE, None),),
            notes=("one color is absent initially and is never added, so the proportion is frozen",),
        )
    if model.kind == ONE_DRAW:
        # Zero drift for single draws forces the rule "add s of the drawn
        # color" (the classical reinforcement urn); the limit law is Beta.
        s = model.matrix.w_add_white
        return LimitPrediction(
            kind=PredictionKind.BETA_DISTRIBUTION,
            beta_params=(model.w0 / s, model.b0 / s),
            theorem=THEOREM_SINGLE_DRAW_LAW,
        )
    if model.sampling == WITHOUT_REPLACEMENT:
        return LimitPrediction(
            kind=PredictionKind.CONTINUOUS_NO_ATOMS,
            theorem=THEOREM_PAIR_FLAT_CONTINUOUS,
            notes=("the proportion converges and its limit law has no interior point mass",),
        )
    return LimitPrediction(
        kind=PredictionKind.UNKNOWN,
        notes=(
            "zero-drift pair model sampled with replacement: the no-atoms result "
            "is established only for sampling without replacement",
        ),
    )


def _predict_degenerate(
    model: UrnModel,
    meta: ModelMeta,
    drift: RatPoly,
    error_poly: RatPoly,
    reduction: DegenerateReduction,
    equilibria: tuple[Equilibrium, ...],
) -> LimitPrediction:
    """Models with inactive matrix rows (some draws change nothing).

    ``equilibria`` are those of the reduced drift, in the reduced variable.
    """
    if reduction.fixed_limit is not None:
        point = PredictedPoint(RootRecord(1, value=reduction.fixed_limit), None, VERDICT_UNIQUE, None)
        return LimitPrediction(
            kind=PredictionKind.POINT_MASS_SET,
            points=(point,),
            notes=("a single active matrix row pins the proportion to its white ratio",),
        )

    if reduction.reduced_drift.is_zero:
        return LimitPrediction(
            kind=PredictionKind.UNKNOWN,
            notes=("the reduced drift is identically zero; no certified statement",),
        )

    # The span of the active rows' white ratios, in the reduced variable.
    ratios = active_white_ratios(model)
    lo, hi = sorted(map(reduction.to_reduced, (min(ratios), max(ratios))))
    span = AttainableInterval(lo, hi, closed_bounds=True)
    return _predict_from_roots(meta, drift, error_poly, equilibria, span, reduction)


# ---------------------------------------------------------------------------
# Full analysis bundle
# ---------------------------------------------------------------------------

class ModelAnalysis(Record):
    """Everything the exact pipeline can say about one model.

    ``equilibria`` lists the classified roots of the drift in the unit
    interval, in the proportion's own variable: for a model whose rows are all
    active, and for an inactive mixed row (case 6), whose reduced drift has
    the drift's roots. It is empty for a zero drift and for cases 1-5. Cases
    1-3 have a fixed limit; the reduced drift's roots of cases 4 and 5 lie in
    the reduced variable and appear, mapped back to proportions, only under
    ``prediction``.
    """

    model: UrnModel
    meta: ModelMeta
    drift: RatPoly
    noise: OneDrawNoise | TwoDrawNoise
    attainable: AttainableInterval | None
    scheme: SAConditions | None
    equilibria: tuple[Equilibrium, ...]
    prediction: LimitPrediction
    degenerate: DegenerateReduction | None


def analyze_model(model: UrnModel) -> ModelAnalysis:
    """The one analysis pass: each quantity below is computed once per model."""
    meta = model_meta(model)
    drift = drift_for(model)
    noise = error_one(model) if model.kind == ONE_DRAW else error_two(model)
    degenerate = attain = scheme = None
    equilibria: tuple[Equilibrium, ...] = ()
    if meta.degenerate_case != 0:
        degenerate = degenerate_reduce(model)
        reduced = degenerate.reduced_drift
        classified = () if reduced is None or reduced.is_zero else tuple(classify_all(reduced))
        prediction = _predict_degenerate(model, meta, drift, noise.error, degenerate, classified)
        # Only roots in the proportion's own variable are listed (case 6,
        # where the reduced drift is the drift).
        if reduced == drift:
            equilibria = classified
    else:
        attain = attainable_interval(model)
        scheme = SAConditions.build(
            initial_total=model.w0 + model.b0,
            t_min=meta.t_min,
            t_max=meta.t_max,
            drift=drift,
            bias_constant=meta.bias_bound,
        )
        if drift.is_zero:
            prediction = _predict_flat(model)
        else:
            equilibria = tuple(classify_all(drift))
            prediction = _predict_from_roots(meta, drift, noise.error, equilibria, attain)
    return ModelAnalysis(
        model=model,
        meta=meta,
        drift=drift,
        noise=noise,
        attainable=attain,
        scheme=scheme,
        equilibria=equilibria,
        prediction=prediction,
        degenerate=degenerate,
    )


def predict_limit(model: UrnModel) -> LimitPrediction:
    """The strongest certified statement about the long-run white proportion."""
    return analyze_model(model).prediction


def sa_conditions_for(model: UrnModel) -> SAConditions | None:
    """Scheme constants for the model, or None when a matrix row adds nothing."""
    return analyze_model(model).scheme


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def to_json(value):
    """The JSON form of an analysis or verify report value, as :func:`_json_form` decides."""
    return _json_form(type(value))(value)


#: Field types a record stores in its JSON as they are.
_PLAIN = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _json_form(cls: type):
    """How a value of type ``cls`` becomes JSON; every format decision is made here.

    A rational becomes its :func:`format_rational` string, a polynomial its
    coefficient strings, an enum its value and a tuple a list. A
    :class:`RootRecord` becomes ``point, interval, approx, location,
    multiplicity``, spread into the object that holds it. Any other record
    becomes its fields in declaration order; other values are already JSON.
    """
    if issubclass(cls, Fraction):
        return format_rational
    if issubclass(cls, RatPoly):
        return RatPoly.coefficient_strings
    if issubclass(cls, Enum):
        return attrgetter("value")
    if issubclass(cls, tuple):
        return lambda items: [to_json(item) for item in items]
    if issubclass(cls, RootRecord):
        return lambda root: {
            "point": to_json(root.value),
            "interval": to_json(root.interval),
            "approx": root.approx,
            "location": root.location,
            "multiplicity": root.multiplicity,
        }
    if not issubclass(cls, Record):
        return lambda value: value
    names = cls._fields

    def record(value) -> dict:
        out = {}
        for name in names:
            field = getattr(value, name)
            kind = type(field)
            if kind in _PLAIN:
                out[name] = field
            elif issubclass(kind, RootRecord):
                out.update(_json_form(kind)(field))
            else:
                out[name] = _json_form(kind)(field)
        return out

    return record


def prediction_to_dict(prediction: LimitPrediction) -> dict:
    return to_json(prediction)


def _as_float(x) -> float:
    """``float(x)``, or ``inf`` for a number too large for a float."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def beta_in_float_range(beta_params) -> bool:
    """Whether both Beta parameters are positive and finite as floats, as the KS test needs."""
    return all(0 < _as_float(v) < math.inf for v in beta_params)


def _point_from_dict(entry: dict) -> tuple[RootRecord, EquilibriumClass | None]:
    """Rebuild a point record and its classification from their serialized form.

    Exact rational points round-trip exactly; points serialized without an
    exact value come back as the (exact binary) fraction of their float
    approximation, which is all that downstream clustering consumes. A point
    must lie in [0, 1], an approximation must be a JSON number, and a
    multiplicity, if given, must be an integer of at least 1, as every root
    the analysis writes is.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"a point must be a JSON object, not {entry!r}")
    exact = entry.get("point") is not None
    raw = entry["point"] if exact else entry["approx"]
    if not exact and type(raw) not in (int, float):  # float() also reads True and " 0.5 "
        raise ValueError(f"an approximate point must be a number, not {raw!r}")
    value = parse_rational(raw) if exact else _as_float(raw)
    if not 0 <= value <= 1:  # also refuses NaN
        raise ValueError(f"a point must lie in [0, 1], not {raw!r}")
    multiplicity = entry.get("multiplicity", 1)
    if type(multiplicity) is not int or multiplicity < 1:
        raise ValueError(f"a multiplicity must be an integer of at least 1, not {multiplicity!r}")
    cls = entry.get("classification")
    record = RootRecord(multiplicity, value=Fraction(value))
    return record, EquilibriumClass(cls) if cls else None


def prediction_from_dict(data: dict) -> LimitPrediction:
    """Inverse of :func:`prediction_to_dict` (up to irrational-point records).

    Raises ``ValueError``, ``KeyError`` or ``TypeError`` for data that is not
    a prediction: in particular a point outside [0, 1], two points (predicted
    or excluded) at one location, a verdict, theorem or note that is not a
    string, and a Beta law without two positive parameters in float range.
    """
    kind = PredictionKind(data["kind"])
    points = tuple(
        PredictedPoint(*_point_from_dict(entry), entry["verdict"], entry.get("theorem"))
        for entry in data.get("points", ())
    )
    excluded = tuple(
        ExcludedPoint(*_point_from_dict(entry), entry["theorem"])
        for entry in data.get("excluded", ())
    )
    # The judge clusters around the float locations, so these must be distinct.
    seen = {}
    for p in points + excluded:
        if p.root.approx in seen:
            first, value = format_rational(seen[p.root.approx]), format_rational(p.root.value)
            raise ValueError(f"two points at the same location: {first} and {value}")
        seen[p.root.approx] = p.root.value
    # These are copied into the report, so each must be JSON text.
    notes = data.get("notes", [])
    if not isinstance(notes, list):
        raise ValueError(f"notes must be a list of strings, not {notes!r}")
    theorems = [data.get("theorem"), *(p.theorem for p in points + excluded)]
    for text in [*notes, *(p.verdict for p in points), *(t for t in theorems if t is not None)]:
        if type(text) is not str:
            raise ValueError(f"verdicts, theorems and notes must be strings, not {text!r}")
    raw_beta = data.get("beta_params")
    beta_params = None
    if raw_beta or kind is PredictionKind.BETA_DISTRIBUTION:
        if not (isinstance(raw_beta, list) and len(raw_beta) == 2):
            raise ValueError(f"beta_params must be a list of two numbers, not {raw_beta!r}")
        beta_params = (parse_rational(raw_beta[0]), parse_rational(raw_beta[1]))
        if not beta_in_float_range(beta_params):
            raise ValueError(f"beta_params must be positive and within float range: {raw_beta!r}")
    return LimitPrediction(
        kind=kind,
        points=points,
        excluded=excluded,
        beta_params=beta_params,
        theorem=data.get("theorem"),
        notes=tuple(notes),
    )


def analysis_to_dict(analysis: ModelAnalysis) -> dict:
    degenerate = to_json(analysis.degenerate)
    if degenerate is not None:
        degenerate = {"case": degenerate.pop("case_id"), **degenerate}
    return {
        "model": model_to_dict(analysis.model),
        "meta": to_json(analysis.meta),
        "drift": {"coefficients": to_json(analysis.drift), "text": analysis.drift.to_text()},
        "noise": to_json(analysis.noise),
        "scheme_constants": to_json(analysis.scheme),
        "attainable": to_json(analysis.attainable),
        "equilibria": to_json(analysis.equilibria),
        "prediction": to_json(analysis.prediction),
        "degenerate": degenerate,
    }

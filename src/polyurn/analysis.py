"""Whole-model analysis: from an urn specification to a limit prediction.

This module wires the exact building blocks together. Given a model it
derives the drift and noise polynomials, classifies the drift's equilibria,
applies the exclusion criteria, handles the families with special closed-form
answers (identically zero drift; matrices with inactive rows), and produces a
single :class:`~polyurn.stability.LimitPrediction` plus a JSON-ready report.

Every object of that report is a record written out as its fields in
declaration order, so a field added to one of these records becomes a JSON
key. Data meant only to explain a decision (the planned ``--explain``
output, ROADMAP item 4) therefore stays out of these records until that
output adds an opt-in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter

from .ratpoly import (
    INTERIOR,
    LEFT_BOUNDARY,
    RIGHT_BOUNDARY,
    RatPoly,
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
    degenerate_map_back,
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


def _map_record(record: RootRecord, reduction: DegenerateReduction) -> RootRecord:
    """Send a reduced-coordinate root record back to the original proportion."""
    if reduction.case_id not in (4, 5):
        return record
    if record.value is not None:
        return RootRecord(record.multiplicity, value=degenerate_map_back(reduction, record.value))
    a, b = (degenerate_map_back(reduction, end) for end in record.interval)
    return RootRecord(record.multiplicity, interval=(min(a, b), max(a, b)))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _count_diverges(meta: ModelMeta, boundary: str) -> bool:
    """Whether the count of the color absent at ``boundary`` (0 or 1) diverges."""
    if boundary == LEFT_BOUNDARY:
        return meta.white_count_diverges_at_zero
    return meta.black_count_diverges_at_one


def _predict_from_equilibria(
    drift: RatPoly,
    error_poly: RatPoly,
    equilibria: tuple[Equilibrium, ...],
    attain: AttainableInterval,
    meta: ModelMeta,
) -> LimitPrediction:
    points: list[PredictedPoint] = []
    excluded: list[ExcludedPoint] = []
    for eq in equilibria:
        rec = eq.root
        cls = eq.classification
        if cls is EquilibriumClass.STRICTLY_UNSTABLE:
            if rec.location == INTERIOR:
                if check_noise_floor(error_poly, rec):
                    excluded.append(ExcludedPoint(rec, cls, THEOREM_NOISE_FLOOR_EXCLUSION))
                    continue
            else:
                diverges = _count_diverges(meta, rec.location)
                if check_boundary_exclusion(drift, error_poly, rec.value, diverges):
                    excluded.append(ExcludedPoint(rec, cls, THEOREM_BOUNDARY_EXCLUSION))
                    continue
            points.append(PredictedPoint(rec, cls, VERDICT_UNKNOWN, None))
        elif cls is EquilibriumClass.STABLE:
            if rec.within(attain.lower, attain.upper, strict=not attain.closed_bounds):
                points.append(
                    PredictedPoint(rec, cls, VERDICT_POSITIVE_PROBABILITY, THEOREM_STABLE_ATTRACTION)
                )
            else:
                points.append(PredictedPoint(rec, cls, VERDICT_UNKNOWN, None))
        elif cls is EquilibriumClass.TOUCHPOINT:
            if rec.within(attain.lower, attain.upper, strict=True):
                points.append(
                    PredictedPoint(rec, cls, VERDICT_TOUCHPOINT, THEOREM_TOUCHPOINT_POSSIBLE)
                )
            else:
                points.append(PredictedPoint(rec, cls, VERDICT_UNKNOWN, None))
        else:
            points.append(PredictedPoint(rec, cls, VERDICT_UNKNOWN, None))
    if not points:
        return LimitPrediction(
            kind=PredictionKind.UNKNOWN,
            excluded=tuple(excluded),
            notes=("every drift root was excluded; no certified candidate remains",),
        )
    if len(points) == 1:
        only = points[0]
        points = [
            PredictedPoint(only.root, only.classification, VERDICT_UNIQUE, THEOREM_LIMIT_EXISTS)
        ]
    return LimitPrediction(
        kind=PredictionKind.POINT_MASS_SET,
        points=tuple(points),
        excluded=tuple(excluded),
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
    reduction: DegenerateReduction,
    equilibria: tuple[Equilibrium, ...],
) -> LimitPrediction:
    """Models with inactive matrix rows (some draws change nothing).

    ``equilibria`` are those of the drift, which in case 6 is also the
    reduced drift; cases 4 and 5 classify their own reduced drift.
    """
    if reduction.fixed_limit is not None:
        point = PredictedPoint(RootRecord(1, value=reduction.fixed_limit), None, VERDICT_UNIQUE, None)
        return LimitPrediction(
            kind=PredictionKind.POINT_MASS_SET,
            points=(point,),
            notes=("a single active matrix row pins the proportion to its white ratio",),
        )

    reduced = reduction.reduced_drift
    if reduced.is_zero:
        return LimitPrediction(
            kind=PredictionKind.UNKNOWN,
            notes=("the reduced drift is identically zero; no certified statement",),
        )

    ratios = active_white_ratios(model)
    lo_x, hi_x = min(ratios), max(ratios)
    if reduction.case_id == 4:
        span = (2 * lo_x / (1 + lo_x), 2 * hi_x / (1 + hi_x))
    elif reduction.case_id == 5:
        span = (2 * (1 - hi_x) / (2 - hi_x), 2 * (1 - lo_x) / (2 - lo_x))
    else:
        span = (lo_x, hi_x)

    points: list[PredictedPoint] = []
    excluded: list[ExcludedPoint] = []
    borderline = False
    reduced_equilibria = equilibria if reduction.case_id == 6 else classify_all(reduced)
    for eq in reduced_equilibria:
        rec = eq.root
        cls = eq.classification
        mapped = _map_record(rec, reduction)
        if reduction.case_id in (4, 5) and _case45_sign_uncertain(model, reduction, mapped):
            # Borderline boundary configuration: neither exclusion nor
            # retention is certified, whatever the exact local sign says.
            borderline = True
            points.append(PredictedPoint(mapped, cls, VERDICT_UNKNOWN, None))
            continue
        if (
            cls is EquilibriumClass.STRICTLY_UNSTABLE
            and mapped.location != INTERIOR
            and reduction.case_id in (4, 5)
        ):
            if _count_diverges(meta, mapped.location):
                # The reduced noise curve vanishes at the boundary (it keeps
                # the proportion-times-complement factor), so the boundary
                # non-convergence criterion applies when the count diverges.
                excluded.append(ExcludedPoint(mapped, cls, THEOREM_BOUNDARY_EXCLUSION))
                continue
            points.append(PredictedPoint(mapped, cls, VERDICT_UNKNOWN, None))
        elif cls is EquilibriumClass.STABLE and rec.within(*span, strict=False):
            points.append(
                PredictedPoint(mapped, cls, VERDICT_POSITIVE_PROBABILITY, THEOREM_STABLE_ATTRACTION)
            )
        else:
            points.append(PredictedPoint(mapped, cls, VERDICT_UNKNOWN, None))

    notes = (
        "inactive matrix rows: the analysis runs on the chain of effective draws "
        f"({reduction.variable_map})",
    )
    if borderline:
        # The borderline boundary also voids the guarantee that the chain of
        # effective draws runs forever, so no "limit lies in this set"
        # statement survives either.
        return LimitPrediction(
            kind=PredictionKind.UNKNOWN,
            points=tuple(points),
            excluded=tuple(excluded),
            notes=notes
            + ("a borderline boundary root leaves the long-run behaviour unsettled",),
        )
    if not points:
        return LimitPrediction(
            kind=PredictionKind.UNKNOWN, excluded=tuple(excluded), notes=notes
        )
    if len(points) == 1 and points[0].verdict != VERDICT_UNKNOWN:
        only = points[0]
        points = [
            PredictedPoint(only.root, only.classification, VERDICT_UNIQUE, THEOREM_LIMIT_EXISTS)
        ]
    return LimitPrediction(
        kind=PredictionKind.POINT_MASS_SET,
        points=tuple(points),
        excluded=tuple(excluded),
        notes=notes,
    )


def _case45_sign_uncertain(
    model: UrnModel, reduction: DegenerateReduction, mapped: RootRecord
) -> bool:
    """Borderline sub-case where no exclusion or retention is certified.

    With the white-white row inactive, a root of the reduced drift at the
    all-white boundary (which needs the mixed row to add no black) sits at a
    degenerate repeller/attractor transition exactly when twice the mixed
    row's white addition equals the black-black row's total; the available
    arguments do not settle that configuration. Mirrored for the
    black-black-inactive case.
    """
    entries = model.scaled.entries
    boundary_is_one = mapped.location == RIGHT_BOUNDARY
    if reduction.case_id == 5:
        # The color swap reverses the entries.
        entries = entries[::-1]
        boundary_is_one = mapped.location == LEFT_BOUNDARY
    if not boundary_is_one:
        return False
    a, b, c, d, e, f = entries
    return d == 0 and 2 * c == f


# ---------------------------------------------------------------------------
# Full analysis bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelAnalysis:
    """Everything the exact pipeline can say about one model."""

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
    degenerate = None
    attain = None
    scheme = None
    equilibria: tuple[Equilibrium, ...] = ()
    if meta.degenerate_case != 0:
        degenerate = degenerate_reduce(model)
        if degenerate.case_id == 6 and not drift.is_zero:
            equilibria = tuple(classify_all(drift))
        prediction = _predict_degenerate(model, meta, degenerate, equilibria)
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
            prediction = _predict_from_equilibria(drift, noise.error, equilibria, attain, meta)
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

def _to_json(value):
    """The JSON form of an analysis value, as :func:`_json_form` decides for its type."""
    return _json_form(type(value))(value)


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
        return lambda items: [_to_json(item) for item in items]
    if issubclass(cls, RootRecord):
        return lambda root: {
            "point": _to_json(root.value),
            "interval": _to_json(root.interval),
            "approx": root.approx,
            "location": root.location,
            "multiplicity": root.multiplicity,
        }
    if not is_dataclass(cls):
        return lambda value: value
    names = tuple(f.name for f in fields(cls))

    def record(value) -> dict:
        out = {}
        for name in names:
            field = getattr(value, name)
            if isinstance(field, RootRecord):
                out.update(_to_json(field))
            else:
                out[name] = _to_json(field)
        return out

    return record


def prediction_to_dict(prediction: LimitPrediction) -> dict:
    return _to_json(prediction)


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
    approximation, which is all that downstream clustering consumes.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"a point must be a JSON object, not {entry!r}")
    if entry.get("point") is not None:
        value = parse_rational(entry["point"])
    else:
        approx = _as_float(entry["approx"])
        if not math.isfinite(approx):
            raise ValueError(f"point approximation is not finite: {entry['approx']!r}")
        value = Fraction(approx)
    cls = entry.get("classification")
    record = RootRecord(int(entry.get("multiplicity", 1)), value=value)
    return record, EquilibriumClass(cls) if cls else None


def prediction_from_dict(data: dict) -> LimitPrediction:
    """Inverse of :func:`prediction_to_dict` (up to irrational-point records).

    Raises ``ValueError``, ``KeyError`` or ``TypeError`` for data that is not
    a prediction: in particular a point without a finite location, two points
    (predicted or excluded) at one location, and a Beta law without two
    positive parameters in float range.
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
        notes=tuple(data.get("notes", ())),
    )


def analysis_to_dict(analysis: ModelAnalysis) -> dict:
    degenerate = _to_json(analysis.degenerate)
    if degenerate is not None:
        degenerate = {"case": degenerate.pop("case_id"), **degenerate}
    return {
        "model": model_to_dict(analysis.model),
        "meta": _to_json(analysis.meta),
        "drift": {"coefficients": _to_json(analysis.drift), "text": analysis.drift.to_text()},
        "noise": _to_json(analysis.noise),
        "scheme_constants": _to_json(analysis.scheme),
        "attainable": _to_json(analysis.attainable),
        "equilibria": _to_json(analysis.equilibria),
        "prediction": _to_json(analysis.prediction),
        "degenerate": degenerate,
    }

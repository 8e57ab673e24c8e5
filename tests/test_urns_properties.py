"""Properties of the urn closed forms over random rational models and states.

Each closed form is checked against ``cond_moments_oracle``, which enumerates
the outcomes of one step, and against a ``Fraction`` reference in
``helpers.py`` that works on the matrix entries directly. The library computes
the closed forms from the model's scaled integers, so the references also
check that scaling by the common denominator of the entries and the start
counts changes no value. Examples are derandomized and no example database is
kept, so the suite is deterministic.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from polyurn.oracle import (
    UrnState,
    cond_iv_closed_form_one,
    cond_iv_closed_form_two,
    cond_moments_oracle,
    mean_noise_residual_two,
)
from polyurn.urns import (
    ONE_DRAW,
    TWO_DRAW,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    bias_bound,
    drift_for,
    error_for,
    error_one,
    error_two,
    one_draw_model,
    two_draw_model,
)

from helpers import reference_bias_bound, reference_drift, reference_noise

PROPERTIES = settings(derandomize=True, database=None, deadline=None)

entries = st.builds(F, st.integers(0, 12), st.integers(1, 4))
#: Counts of at least 1, so that pair draws without replacement are defined.
counts = st.integers(1, 4).flatmap(lambda q: st.integers(q, 60 * q).map(lambda n: F(n, q)))


@st.composite
def models(draw, kinds=(ONE_DRAW, WITH_REPLACEMENT, WITHOUT_REPLACEMENT)):
    """A model with rational entries and start counts; ``kinds`` names the draw rules."""
    kind = draw(st.sampled_from(kinds))
    size = 4 if kind == ONE_DRAW else 6
    matrix = draw(st.lists(entries, min_size=size, max_size=size).filter(any))
    w0, b0 = draw(counts), draw(counts)
    if kind == ONE_DRAW:
        return one_draw_model(matrix, w0, b0)
    return two_draw_model(matrix, w0, b0, sampling=kind)


states = st.builds(UrnState, counts, counts)


@PROPERTIES
@given(models(), states)
def test_drift_is_the_mean_centered_increment(model, state):
    moments = cond_moments_oracle(state, model)
    expected = drift_for(model).evaluate(state.proportion_white)
    if model.kind == TWO_DRAW and model.sampling == WITHOUT_REPLACEMENT:
        expected += mean_noise_residual_two(state, model.matrix)
    assert moments.mean_y == expected


@PROPERTIES
@given(models(kinds=(ONE_DRAW, WITH_REPLACEMENT)), states)
def test_noise_is_the_step_variance_with_replacement(model, state):
    moments = cond_moments_oracle(state, model)
    assert moments.mean_u == 0
    assert error_for(model).evaluate(state.proportion_white) == moments.mean_u_sq


@PROPERTIES
@given(models(), states)
def test_bias_closed_forms_match_the_oracle(model, state):
    bias = cond_moments_oracle(state, model).mean_u_over_next_t
    if model.kind == ONE_DRAW:
        assert cond_iv_closed_form_one(state, model.matrix) == bias
    else:
        assert cond_iv_closed_form_two(state, model.matrix, model.sampling) == bias


@PROPERTIES
@given(models(), states)
def test_bias_bound_dominates_the_bias(model, state):
    bias = cond_moments_oracle(state, model).mean_u_over_next_t
    assert abs(bias) * state.total ** 2 <= bias_bound(model)


@PROPERTIES
@given(models())
def test_scaled_closed_forms_equal_the_fraction_references(model):
    assert drift_for(model) == reference_drift(model)
    noise = error_one(model) if model.kind == ONE_DRAW else error_two(model)
    assert noise == reference_noise(model)
    assert bias_bound(model) == reference_bias_bound(model)


@PROPERTIES
@given(models())
def test_a_model_and_its_matrix_give_the_same_closed_forms(model):
    # The model's view also scales by the start counts' denominators.
    noise = error_one if model.kind == ONE_DRAW else error_two
    assert noise(model) == noise(model.matrix)
    assert model.scaled.entries == tuple(v * model.scaled.scale for v in model.matrix.entries)
    rows = model.matrix.entries
    assert model.scaled.row_sums == tuple(
        (w + b) * model.scaled.scale for w, b in zip(rows[::2], rows[1::2]))
    assert (model.scaled.w0, model.scaled.b0) == (model.w0 * model.scaled.scale,
                                                  model.b0 * model.scaled.scale)

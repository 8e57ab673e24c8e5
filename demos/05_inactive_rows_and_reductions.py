"""Urns with inactive rows: reductions, pinned limits, and honest unknowns.

A matrix row that adds nothing leaves the urn unchanged whenever it is
drawn. The analysis removes such draws and studies the chain of effective
draws instead; depending on which rows are inactive the proportion may be
pinned outright, follow a reduced drift in a transformed variable, or land
in a configuration where no implemented criterion settles the outcome.

Run:  python3 demos/05_inactive_rows_and_reductions.py
"""

from polyurn import (
    SimConfig,
    degenerate_reduce,
    predict_limit,
    run_replicates,
    two_draw_model,
)

# ---------------------------------------------------------------------------
# Only one row active: the limit is pinned to that row's white ratio
# ---------------------------------------------------------------------------
# Here only the black-black row adds balls, two white and three black per
# effective draw, so the proportion is forced to 2/5.

pinned = two_draw_model([0, 0, 0, 0, 2, 3], w0=2, b0=2)
reduction = degenerate_reduce(pinned)
print("pinned model: case", reduction.case_id, "-> limit", reduction.fixed_limit)

config = SimConfig(model=pinned, steps=5000, replicates=5, base_seed=0)
print("simulated finals:", [round(r.final_z, 4) for r in run_replicates(config)])

# ---------------------------------------------------------------------------
# White-white row inactive: a reduced drift in a transformed variable
# ---------------------------------------------------------------------------
# With the white-white row silent, the effective chain tracks a transformed
# proportion; its quadratic drift is analyzed exactly and the zero is mapped
# back to the original scale.

reduced = two_draw_model([0, 0, 1, 1, 1, 1], w0=2, b0=2)
reduction = degenerate_reduce(reduced)
print("\nreduced model: case", reduction.case_id)
print("  reduced drift:", reduction.reduced_drift.to_text())
print("  variable map:", reduction.variable_map)

prediction = predict_limit(reduced)
point = prediction.points[0]
print(f"  prediction: {point.root.value} ({point.verdict})")

config = SimConfig(model=reduced, steps=20000, replicates=5, base_seed=1)
print("  simulated finals:", [round(r.final_z, 4) for r in run_replicates(config)])

# ---------------------------------------------------------------------------
# A borderline configuration the theory does not settle
# ---------------------------------------------------------------------------
# Same inactive row, but the mixed row adds no black and twice its white
# addition equals the black-black total. The reduced drift then has a double
# root at the boundary y = 1, a degenerate transition, so the package refuses
# to certify anything rather than guess.

borderline = two_draw_model([0, 0, 1, 0, 1, 2], w0=2, b0=2)
prediction = predict_limit(borderline)
print("\nborderline model prediction:", prediction.kind.value)
for note in prediction.notes:
    print("  note:", note)

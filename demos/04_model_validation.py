"""Validate the hybrid model against purely data-based baselines.

Leave-one-out cross-validation yields per-release relative errors
(MRE), summarized as MMRE and Pred(.25).  The one-sided Wilcoxon
signed-rank test checks whether the hybrid model's improvement over the
best baseline is statistically significant.  Two further analyses probe
robustness: accuracy as a function of the number of factors used, and
accuracy as the release history grows.
"""

from pathlib import Path

from defectcast import (
    MODEL_DC_MEDIAN,
    MODEL_DD_MEDIAN,
    MODEL_EFF_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    Target,
    ablation_curve,
    aggregate_rankings,
    history_simulation,
    load_bundle,
    loocv,
    wilcoxon_one_sided,
)

bundle = load_bundle(Path(__file__).parent / "data" / "example_bundle.json")


def show(report):
    mres = " ".join(f"{c.release_id}={c.mre:.2f}" for c in report.cases)
    print(f"  {report.model_name:<18} MMRE={report.mmre:.2f} "
          f"Pred(.25)={report.pred[0.25]:.2f}   [{mres}]")


print("Defect content, leave-one-out:")
dc_if = loocv(bundle, MODEL_INFLUENCE_FACTOR, Target.DEFECT_CONTENT)
dc_dd = loocv(bundle, MODEL_DD_MEDIAN, Target.DEFECT_CONTENT)
dc_dc = loocv(bundle, MODEL_DC_MEDIAN, Target.DEFECT_CONTENT)
for r in (dc_dc, dc_dd, dc_if):
    show(r)

w = wilcoxon_one_sided(dc_if.mre_pairs(dc_dd))
print(f"  hybrid vs density baseline: one-sided p = {w.p_one_sided:.4f} "
      f"({w.method}, n = {w.n_effective})")

print("\nEffectiveness, leave-one-out (top-2 ranked factors by default):")
eff_if = loocv(bundle, MODEL_INFLUENCE_FACTOR, Target.EFFECTIVENESS)
eff_med = loocv(bundle, MODEL_EFF_MEDIAN, Target.EFFECTIVENESS)
for r in (eff_med, eff_if):
    show(r)
w_eff = wilcoxon_one_sided(eff_if.mre_pairs(eff_med))
print(f"  hybrid vs median baseline: one-sided p = {w_eff.p_one_sided:.4f}")

print("\nAccuracy vs number of factors (top-k by aggregated ranking):")
order = [rf.factor_id
         for rf in aggregate_rankings(bundle.rankings, Target.DEFECT_CONTENT)]
curve = ablation_curve(bundle, Target.DEFECT_CONTENT, order, [0, 1, 3, 5])
for k in sorted(curve.reports):
    print(f"  k={k}: MMRE={curve.reports[k].mmre:.3f}")

print("\nAccuracy as the history grows (start with 4 releases):")
history = history_simulation(bundle, start_m=4)
for j, case in enumerate(history.accuracy.cases):
    print(f"  {4 + j} releases -> predict {case.release_id}: MRE={case.mre:.3f}")

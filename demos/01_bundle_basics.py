"""Load a context bundle and look at the raw measurements.

The bundle describes one estimation context: the influence factors with
their four-level scales, the experts' triangular impact estimates and
importance rankings, and the measured history of releases.
"""

from pathlib import Path

from defectcast import (
    Target,
    aggregate_rankings,
    defect_content,
    defect_density,
    descriptive_stats,
    effectiveness,
    load_bundle,
)

bundle = load_bundle(Path(__file__).parent / "data" / "example_bundle.json")

print(f"{len(bundle.factors)} factors, {len(bundle.releases)} releases")
for warning in bundle.warnings:
    print(f"  warning: {warning}")

print("\nPer-release measures (DC = found + slipped, DD = DC/size, Eff = found/DC):")
for r in bundle.releases:
    flag = "  [excluded]" if r.excluded else ""
    print(
        f"  {r.id}: size={r.size:5.0f}  DC={defect_content(r):5.0f}  "
        f"DD={defect_density(r):.3f}  Eff={effectiveness(r):.3f}{flag}"
    )

print("\nAggregated factor importance (rank 1 = most important):")
for target in Target:
    ranked = aggregate_rankings(bundle.rankings, target)
    order = ", ".join(
        f"{rf.factor_id} (mean {rf.mean_rank:.2f})" for rf in ranked
    )
    print(f"  {target.value}: {order}")

print("\nOutlier screening (advisory, 1.5*IQR fences):")
stats = descriptive_stats(bundle.releases)
for rid, measure, reason in stats.flagged:
    print(f"  release {rid}: {measure} {reason}")

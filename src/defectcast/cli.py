"""Command-line interface.

Thin mapping onto the library: `check`, `rank`, `calibrate`, `predict`,
`crossval`, `ablate`, `historysim`.  Runs are reproducible by default
(seed 0, never time-based); every randomized command prints the
effective seed.  Exit codes: 0 success, 1 validation/data error, 2
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bundle import load_bundle
from .errors import BundleValidationError, EstimationError
from .evaluation import (
    MODEL_DC_MEDIAN,
    MODEL_DD_MEDIAN,
    MODEL_EFF_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    ablation_curve,
    history_simulation,
    loocv,
    wilcoxon_one_sided,
)
from .calibration import calibrate, descriptive_stats
from .model import Target, aggregate_rankings, defect_content
from .prediction import (
    DEFAULT_QUANTILES,
    NewReleaseSpec,
    predict_defect_content,
    predict_defects_found,
    predict_effectiveness,
)
from .report import render_report
from .sampling import EngineOptions

_TARGETS = {"defect-content": Target.DEFECT_CONTENT, "effectiveness": Target.EFFECTIVENESS}
_MODELS = {
    "influence-factor": MODEL_INFLUENCE_FACTOR,
    "dc-median": MODEL_DC_MEDIAN,
    "dd-median": MODEL_DD_MEDIAN,
    "eff-median": MODEL_EFF_MEDIAN,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bundle", required=True, help="context bundle JSON file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument(
        "--point", choices=["analytic-mean", "mc-median"], default="analytic-mean"
    )
    parser.add_argument(
        "--exclude", default="", help="comma-separated release ids to exclude"
    )
    parser.add_argument(
        "--factors",
        default=None,
        help="comma-separated active-factor override; a target none of the "
        "listed factors belongs to keeps its default active factors",
    )
    parser.add_argument("--format", choices=["json", "csv", "text"], default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectcast",
        description="Hybrid defect-content and QA-effectiveness estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a bundle and show descriptive stats")
    _add_common(p)

    p = sub.add_parser("rank", help="aggregate the expert factor rankings")
    _add_common(p)
    p.add_argument("--target", choices=list(_TARGETS), required=True)

    p = sub.add_parser("calibrate", help="derive context base values")
    _add_common(p)

    p = sub.add_parser("predict", help="predict a new release")
    _add_common(p)
    p.add_argument("--size", type=float, default=None)
    p.add_argument(
        "--levels", default=None, help="inline characterization, e.g. D1=2,D2=0"
    )
    p.add_argument(
        "--spec", default=None, help='JSON file with {"size": ..., "levels": {...}}'
    )
    p.add_argument(
        "--quantiles",
        type=_parse_probs,
        default=",".join(str(q) for q in DEFAULT_QUANTILES),
        help="comma-separated quantile probabilities in [0, 1]",
    )

    p = sub.add_parser("crossval", help="leave-one-out model comparison")
    _add_common(p)
    p.add_argument("--target", choices=list(_TARGETS), default="defect-content")
    p.add_argument("--model", choices=list(_MODELS), default="influence-factor")
    p.add_argument("--baseline", choices=list(_MODELS), default=None)
    p.add_argument("--test", choices=["wilcoxon", "none"], default="none")

    p = sub.add_parser("ablate", help="accuracy with top-k ranked factors")
    _add_common(p)
    p.add_argument("--target", choices=list(_TARGETS), default="defect-content")
    p.add_argument(
        "--ks", type=_parse_ks, default="0,1,3,5", help="comma-separated factor counts"
    )

    p = sub.add_parser("historysim", help="growing-history prediction simulation")
    _add_common(p)
    p.add_argument("--target", choices=list(_TARGETS), default="defect-content")
    p.add_argument("--start", type=int, default=4)

    return parser


def _parse_probs(text: str) -> list[float]:
    probs = []
    for item in text.split(","):
        try:
            p = float(item)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {item!r}") from None
        if not 0 <= p <= 1:
            raise argparse.ArgumentTypeError(f"probability {item!r} outside [0, 1]")
        probs.append(p)
    return probs


def _parse_ks(text: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object, unless it repeats a key (the last one would win)."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValueError(f"--spec: duplicate keys {repeated}")
    return dict(pairs)


def _load_spec(path: str) -> NewReleaseSpec:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh, object_pairs_hook=_unique_keys)
    try:
        return NewReleaseSpec(size=float(raw["size"]), levels=raw["levels"])
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"spec file {path}: need an object with a numeric 'size' and a "
            f"'levels' object"
        ) from exc


def _parse_levels(text: str) -> dict[str, int]:
    levels, repeated = {}, set()
    for item in text.split(","):
        key, _, value = item.partition("=")
        if not key or not value:
            raise ValueError(f"bad --levels entry {item!r}")
        key = key.strip()
        if key in levels:
            repeated.add(key)
        try:
            levels[key] = int(value)
        except ValueError:
            raise ValueError(f"bad --levels entry {item!r}") from None
    if repeated:
        raise ValueError(f"--levels: duplicate factor ids {sorted(repeated)}")
    return levels


def _split_factors(bundle, text: str | None) -> dict[Target, list[str] | None]:
    """Per-target --factors overrides; ``resolve_active`` checks each target's ids."""
    if not text:
        return {target: None for target in Target}
    ids = [fid.strip() for fid in text.split(",")]
    known = {f.id for f in bundle.factors}
    unknown = [fid for fid in ids if fid not in known]
    if unknown:
        raise ValueError(f"--factors: unknown factor ids {unknown}")
    split = {}
    for target in Target:
        of_target = {f.id for f in bundle.factors_for(target)}
        split[target] = [fid for fid in ids if fid in of_target] or None
        if split[target]:  # checked for every command, even one that ignores them
            bundle.resolve_active(target, split[target])
    return split


def _emit(report, args) -> None:
    # stdout gets the seed line and the report together, last, so a
    # command that fails writes nothing to it.
    text = render_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    sys.stdout.write(f"seed: {args.seed}\n{text}")


def _run(args) -> int:
    options = EngineOptions(n_samples=args.samples, seed=args.seed, point=args.point)
    bundle = load_bundle(args.bundle)
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.exclude:
        bundle = bundle.with_excluded([rid.strip() for rid in args.exclude.split(",")])
    overrides = _split_factors(bundle, args.factors)

    def active(target):
        return bundle.resolve_active(target, overrides[target])

    if args.command == "check":
        _emit(descriptive_stats(bundle.releases), args)
        return 0

    target = _TARGETS[args.target] if getattr(args, "target", None) else None

    if args.command == "rank":
        ranked = aggregate_rankings(list(bundle.rankings), target)
        _emit(
            {
                "report": "ranking",
                "target": target.value,
                "order": [
                    {
                        "factor_id": rf.factor_id,
                        "mean_rank": rf.mean_rank,
                        "median_rank": rf.median_rank,
                    }
                    for rf in ranked
                ],
            },
            args,
        )
        return 0

    if args.command == "calibrate":
        ctx = calibrate(
            bundle.included_releases(),
            active(Target.DEFECT_CONTENT),
            active(Target.EFFECTIVENESS),
            bundle.quantifications,
            options,
        )
        _emit(ctx, args)
        return 0

    if args.command == "predict":
        if args.spec:
            spec = _load_spec(args.spec)
        elif args.size is not None and args.levels is not None:
            spec = NewReleaseSpec(size=args.size, levels=_parse_levels(args.levels))
        else:
            print("predict needs --spec or both --size and --levels", file=sys.stderr)
            return 2
        known = {f.id for f in bundle.factors}
        unknown = [fid for fid in spec.levels if fid not in known]
        if unknown:
            source = "--spec" if args.spec else "--levels"
            raise ValueError(f"{source}: unknown factor ids {unknown}")
        dc_active = active(Target.DEFECT_CONTENT)
        eff_active = active(Target.EFFECTIVENESS)
        ctx = calibrate(
            bundle.included_releases(), dc_active, eff_active,
            bundle.quantifications, options,
        )
        dc_pred = predict_defect_content(
            ctx, spec, dc_active, bundle.quantifications, options, args.quantiles
        )
        payload = {
            "report": "predictions",
            "defect_content": dc_pred.to_payload(),
            "seed": options.seed,
        }
        if ctx.eff_base_median is not None and all(
            f.id in spec.levels for f in eff_active
        ):
            eff_pred = predict_effectiveness(
                ctx, spec, eff_active, bundle.quantifications, options, args.quantiles
            )
            payload["effectiveness"] = eff_pred.to_payload()
            payload["expected_defects_found"] = predict_defects_found(dc_pred, eff_pred)
        _emit(payload, args)
        return 0

    if args.command == "crossval":
        model = _MODELS[args.model]
        report = loocv(bundle, model, target, options, overrides[target])
        payload = {"report": "crossval", "model": report.to_payload()}
        if args.baseline:
            base_report = loocv(
                bundle, _MODELS[args.baseline], target, options, overrides[target]
            )
            payload["baseline"] = base_report.to_payload()
            if args.test == "wilcoxon":
                model_mres = report.mres()
                base_mres = base_report.mres()
                pairs = [
                    (model_mres[rid], base_mres[rid]) for rid in sorted(model_mres)
                ]
                payload["wilcoxon"] = wilcoxon_one_sided(pairs).to_payload()
        _emit(payload, args)
        return 0

    if args.command == "ablate":
        ranked = aggregate_rankings(list(bundle.rankings), target)
        order = [rf.factor_id for rf in ranked]
        curve = ablation_curve(bundle, target, order, args.ks, options)
        _emit(
            {
                "report": "ablation",
                "target": target.value,
                "ranking_order": order,
                "mmre_by_k": {str(k): curve[k].mmre for k in sorted(curve)},
            },
            args,
        )
        return 0

    if args.command == "historysim":
        steps = history_simulation(
            bundle, args.start, target, options, overrides[target]
        )
        _emit(
            {
                "report": "history_simulation",
                "target": target.value,
                "start": args.start,
                "steps": [
                    {
                        "history_size": s.history_size,
                        "release": s.predicted_release_id,
                        "predicted": s.predicted,
                        "actual": s.actual,
                        "mre": s.mre,
                    }
                    for s in steps
                ],
            },
            args,
        )
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "crossval" and args.test == "wilcoxon" and not args.baseline:
        parser.error("crossval --test wilcoxon needs --baseline")
    try:
        return _run(args)
    except BundleValidationError as exc:
        print("bundle validation failed:", file=sys.stderr)
        for issue in exc.errors:
            print(f"  {issue.entity}.{issue.field}: {issue.message}", file=sys.stderr)
        return 1
    except (EstimationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

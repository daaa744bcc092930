"""Command-line interface.

Thin mapping onto the library: `check`, `rank`, `calibrate`, `predict`,
`crossval`, `ablate`, `historysim`.  Runs are reproducible by default
(seed 0, never time-based); every command prints the effective seed
as the first line of stdout.  Exit codes: 0 success, 1 validation/data
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .bundle import _read, load_bundle, read_json
from .errors import (
    BundleValidationError,
    EstimationError,
    MissingLevelError,
    NoEffectivenessHistoryError,
)
from .evaluation import (
    MODEL_DC_MEDIAN,
    MODEL_DD_MEDIAN,
    MODEL_EFF_MEDIAN,
    MODEL_INFLUENCE_FACTOR,
    AblationCurve,
    Crossval,
    ablation_curve,
    history_simulation,
    loocv,
    wilcoxon_one_sided,
)
from .calibration import calibrate, descriptive_stats
from .model import Ranking, Target, aggregate_rankings
from .prediction import (
    DEFAULT_QUANTILES,
    NewReleaseSpec,
    Predictions,
    predict_defect_content,
    predict_effectiveness,
)
from .report import render_report
from .sampling import POINT_ANALYTIC_MEAN, POINT_MC_MEDIAN, EngineOptions

_TARGETS = {"defect-content": Target.DEFECT_CONTENT, "effectiveness": Target.EFFECTIVENESS}
_MODELS = {
    "influence-factor": MODEL_INFLUENCE_FACTOR,
    "dc-median": MODEL_DC_MEDIAN,
    "dd-median": MODEL_DD_MEDIAN,
    "eff-median": MODEL_EFF_MEDIAN,
}


def _add_common(parser: argparse.ArgumentParser, engine: bool = True) -> None:
    parser.add_argument("--bundle", required=True, help="context bundle JSON file")
    parser.add_argument("--seed", type=int, default=0)
    if engine:  # check and rank draw nothing and read every release
        parser.add_argument("--samples", type=int, default=10_000)
        parser.add_argument("--point", choices=[POINT_ANALYTIC_MEAN, POINT_MC_MEDIAN],
                            default=POINT_ANALYTIC_MEAN)
        parser.add_argument(
            "--exclude", default="", help="comma-separated release ids to exclude"
        )
    parser.add_argument("--out", default=None, help="write the report to this path")


def _add_factors(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--factors",
        help="comma-separated active-factor override; a target none of the "
        "listed factors belongs to keeps its default active factors",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectcast",
        description="Hybrid defect-content and QA-effectiveness estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a bundle and show descriptive stats")
    _add_common(p, engine=False)

    p = sub.add_parser("rank", help="aggregate the expert factor rankings")
    _add_common(p, engine=False)
    p.add_argument("--target", choices=list(_TARGETS), required=True)

    p = sub.add_parser("calibrate", help="derive context base values")
    _add_common(p)
    _add_factors(p)

    p = sub.add_parser("predict", help="predict a new release")
    _add_common(p)
    _add_factors(p)
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
    _add_factors(p)
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
    _add_factors(p)
    p.add_argument("--target", choices=list(_TARGETS), default="defect-content")
    p.add_argument("--start", type=int, default=4)

    # A usage rule checked after parsing reports through its command's parser.
    for command in sub.choices.values():
        command.set_defaults(command_parser=command)
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


def _load_spec(path: str) -> NewReleaseSpec:
    try:
        raw = read_json(path)
    except ValueError as exc:
        raise ValueError(f"--spec: {exc}") from exc
    try:
        return _read(NewReleaseSpec, raw)
    except ValueError as exc:
        need = "need an object with a numeric 'size' and a 'levels' object"
        cause = f"{exc.field} {exc}" if str(exc) == "missing" else exc
        raise ValueError(f"spec file {path}: {need} ({cause})") from exc


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


def _check_known(bundle, ids, source: str) -> None:
    """A ValueError, led by ``source``, if some of ``ids`` name no factor."""
    known = {f.id for f in bundle.factors}
    unknown = [fid for fid in ids if fid not in known]
    if unknown:
        raise ValueError(f"{source}: unknown factor ids {unknown}")


def _resolve_factors(bundle, text: str | None) -> dict[Target, list]:
    """Each target's active factors; --factors ids are split by target."""
    split = dict.fromkeys(Target)
    if text:
        ids = [fid.strip() for fid in text.split(",")]
        _check_known(bundle, ids, "--factors")
        for target in Target:
            of_target = {f.id for f in bundle.factors_for(target)}
            split[target] = [fid for fid in ids if fid in of_target] or None
    # Resolved for both targets, even if the command uses one.
    return {t: bundle.resolve_active(t, override) for t, override in split.items()}


def _emit(report, args) -> None:
    # stdout gets the seed line and the report together, last, so a
    # command that fails writes nothing to it.
    text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    sys.stdout.write(f"seed: {args.seed}\n{text}")


def _predict(bundle, args, options, active) -> Predictions:
    spec = _load_spec(args.spec) if args.spec else NewReleaseSpec(
        size=args.size, levels=_parse_levels(args.levels))
    _check_known(bundle, spec.levels, "--spec" if args.spec else "--levels")
    dc, eff = active[Target.DEFECT_CONTENT], active[Target.EFFECTIVENESS]
    ctx = calibrate(bundle.included_releases(), dc, eff, bundle.quantifications, options)
    shared = (bundle.quantifications, options, args.quantiles)
    dc_pred = predict_defect_content(ctx, spec, dc, *shared)
    try:
        eff_pred = predict_effectiveness(ctx, spec, eff, *shared)
    except (NoEffectivenessHistoryError, MissingLevelError) as exc:
        print(f"warning: no effectiveness prediction: {exc}", file=sys.stderr)
        eff_pred = None
    return Predictions(dc_pred, eff_pred)


def _crossval(bundle, args, options, active) -> Crossval:
    target = _TARGETS[args.target]
    ids = [f.id for f in active[target]]
    model = loocv(bundle, _MODELS[args.model], target, options, ids)
    baseline = (loocv(bundle, _MODELS[args.baseline], target, options, ids)
                if args.baseline else None)
    wilcoxon = (wilcoxon_one_sided(model.mre_pairs(baseline))
                if args.test == "wilcoxon" else None)  # main() checks the baseline
    return Crossval(model, baseline, wilcoxon)


def _ablate(bundle, args, options, active) -> AblationCurve:
    target = _TARGETS[args.target]
    order = [rf.factor_id for rf in aggregate_rankings(bundle.rankings, target)]
    return ablation_curve(bundle, target, order, args.ks, options)


_COMMANDS = {  # each command's report record
    "check": lambda bundle, args, options, active: descriptive_stats(bundle.releases),
    "rank": lambda bundle, args, options, active: Ranking(
        _TARGETS[args.target],
        aggregate_rankings(bundle.rankings, _TARGETS[args.target])),
    "calibrate": lambda bundle, args, options, active: calibrate(
        bundle.included_releases(), active[Target.DEFECT_CONTENT],
        active[Target.EFFECTIVENESS], bundle.quantifications, options),
    "predict": _predict,
    "crossval": _crossval,
    "ablate": _ablate,
    "historysim": lambda bundle, args, options, active: history_simulation(
        bundle, args.start, _TARGETS[args.target], options,
        [f.id for f in active[_TARGETS[args.target]]]),
}


def _run(args) -> None:
    options = EngineOptions(seed=args.seed)  # check and rank take only the seed
    if "samples" in args:
        options = options._replace(n_samples=args.samples, point=args.point)
    bundle = load_bundle(args.bundle)
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if getattr(args, "exclude", ""):
        bundle = bundle.with_excluded([rid.strip() for rid in args.exclude.split(",")])
    active = _resolve_factors(bundle, args.factors) if "factors" in args else None
    _emit(_COMMANDS[args.command](bundle, args, options, active), args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    usage_error = args.command_parser.error
    if args.command == "crossval" and args.test == "wilcoxon" and not args.baseline:
        usage_error("--test wilcoxon needs --baseline")
    if args.command == "predict":
        inline = (args.size, args.levels)
        if args.spec and inline != (None, None):
            usage_error("takes --spec or --size and --levels, not both")
        if not args.spec and None in inline:
            usage_error("needs --spec or both --size and --levels")
    try:
        _run(args)
    except BundleValidationError as exc:
        print("bundle validation failed:", file=sys.stderr)
        for issue in exc.errors:
            print(f"  {issue.entity}.{issue.field}: {issue.message}", file=sys.stderr)
        return 1
    except (EstimationError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

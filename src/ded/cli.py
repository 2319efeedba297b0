"""Command-line entry point binding all pipeline stages.

Exit codes: 0 ok, 2 config error, 3 stage failure, 4 external-client
failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

from .config import ConfigError, validate_config
from .filtering import FilterConfig, token_lengths
from .pipeline import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, run_pipeline
from .records import (CORPUS_KINDS, CorpusError, load_json, parse_corpus, save_manifest, write_json,
                      write_manifest)
from .teacher import TRAINING_HYPERPARAMETERS, TeacherSelectError, ingest_scores, rank_teachers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ded",
                                     description="Distillation corpus pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus file and write a raw manifest")
    p.set_defaults(handler=_cmd_ingest)
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--kind", default="questions", choices=CORPUS_KINDS)
    p.add_argument("--manifest-out")

    for command, summary in (("sample", "sample teacher trajectories"),
                             ("filter", "run the quality gate and the judge"),
                             ("compress", "student roll-outs and hard-question selection"),
                             ("diversify", "farthest-P selection per question"),
                             ("mix", "compose the mixed-domain corpus of mix_sources"),
                             ("report", "render report.md and tables/ from the manifests")):
        stage = "stats" if command == "report" else command
        p = sub.add_parser(command, help=f"{summary}: `ded run` with stages [{stage}]")
        p.set_defaults(handler=_cmd_run, stages=[stage])
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir")

    p = sub.add_parser("smoke", help="`ded run` with stages [sample, filter] per teacher")
    p.set_defaults(handler=_cmd_smoke)
    p.add_argument("--config", required=True)
    p.add_argument("--teachers", required=True, help="comma-separated teacher ids")
    p.add_argument("--out-dir")

    p = sub.add_parser("rank", help="rank teachers from a score file")
    p.set_defaults(handler=_cmd_rank)
    p.add_argument("--scores", required=True)
    p.add_argument("--weights", default="uniform",
                   help='"uniform" or a path to a JSON object mapping benchmarks to weights')

    p = sub.add_parser("stats", help="corpus diagnostics")
    p.set_defaults(handler=_cmd_stats)
    stats_sub = p.add_subparsers(dest="stat", required=True)
    q = stats_sub.add_parser("entropy")
    q.add_argument("--logprobs", required=True)
    q.add_argument("--out")
    q.add_argument("--svg")
    q = stats_sub.add_parser("lengths")
    q.add_argument("--in", dest="path", required=True)
    q.add_argument("--out")
    q = stats_sub.add_parser("pca-shift")
    q.add_argument("--embeddings", required=True)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--fit-on", default="union", choices=["union", "before"])
    q.add_argument("--out")
    q = stats_sub.add_parser("pass1")
    q.add_argument("--outcomes", required=True,
                   help="pass rates: JSONL with question_id, runs, successes rows")

    p = sub.add_parser("run", help="run the configured pipeline end to end")
    p.set_defaults(handler=_cmd_run, stages=None)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    return parser


def _cmd_ingest(args) -> int:
    records = parse_corpus(args.path, args.kind)
    print(f"parsed {len(records)} {args.kind} records from {args.path}")
    if args.manifest_out:
        manifest = write_manifest("raw", records, config={"source": args.path})
        save_manifest(manifest, args.manifest_out)
        print(f"wrote manifest {args.manifest_out}")
    return EXIT_OK


def _cmd_smoke(args) -> int:
    """`ded run` of --config with stages [sample, filter] and one sample per
    question, per teacher in a directory of its own under --out-dir, with a
    training manifest of its right corpus beside it. The runs share one
    request cache, so an answer two teachers give is judged once."""
    cfg = validate_config(args.config, stages=["sample", "filter"])
    if not cfg["questions"]:
        raise ConfigError(["questions: ded smoke needs the questions file to sample"])
    out = Path(args.out_dir or cfg["out_dir"])
    cache_dir = cfg["client"]["cache_dir"] or str(out / ".cache")
    teacher_ids = args.teachers.split(",")
    # an id may name subdirectories, as in org/model, but may neither climb
    # out of out_dir, nor name out_dir itself, nor write into the cache
    root, cache = out.resolve(), Path(cache_dir).resolve()
    refused = [t for t in teacher_ids if (out / t).resolve() == root or not all(
        p.resolve().is_relative_to(root) for p in (out / t, out / f"training_{t}.json"))]
    if refused:
        raise TeacherSelectError(
            f"teacher ids {refused} would write outside a directory of their own under {out}")
    cached = [t for t in teacher_ids if (out / t).resolve().is_relative_to(cache)]
    if cached:
        raise TeacherSelectError(f"teacher ids {cached} would write into the cache {cache_dir}")
    questions = parse_corpus(cfg["questions"], "questions")
    for teacher_id in teacher_ids:
        result = run_pipeline(dict(cfg, teacher_id=teacher_id, samples_per_question=1,
                                   client=dict(cfg["client"], cache_dir=cache_dir)),
                              out_dir=out / teacher_id)
        if result.exit_code != EXIT_OK:
            print(f"{teacher_id}: pipeline failed at stage {result.failed_stage}: "
                  f"{result.error}", file=sys.stderr)
            return result.exit_code
        corpus = Path(teacher_id, "right_trajectories.jsonl")
        kept = {t.question_id for t in parse_corpus(out / corpus, "trajectories")}
        right = result.manifests["right"]
        training = {
            "teacher_id": teacher_id,
            "corpus_files": [corpus.as_posix()],
            "content_hash": right.content_hash,
            "trajectory_count": right.trajectory_count,
            "dropped_questions": sorted(q.question_id for q in questions
                                        if q.question_id not in kept),
            "hyperparameters": TRAINING_HYPERPARAMETERS,
        }
        write_json(out / f"training_{teacher_id}.json", training)
        print(f"{teacher_id}: kept {training['trajectory_count']} of {len(questions)}; "
              f"dropped questions: {training['dropped_questions'] or 'none'}")
    return EXIT_OK


def _cmd_rank(args) -> int:
    records = ingest_scores(args.scores)
    weights = None
    if args.weights != "uniform":
        try:
            weights = load_json(Path(args.weights).read_bytes())
            if not isinstance(weights, dict) or not all(
                    type(w) in (int, float) and math.isfinite(w) for w in weights.values()):
                raise CorpusError("not a JSON object mapping benchmarks to finite numbers")
        except CorpusError as exc:
            raise TeacherSelectError(f"{args.weights}: {exc}") from exc
    rankings = rank_teachers(records, weights)
    for i, r in enumerate(rankings, start=1):
        print(f"{i}. {r.teacher_id}  score={float(r.score):+.4f}  "
              f"mean_len={r.mean_response_len:.0f}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    from . import diagnostics
    if args.stat == "pass1":
        rates = parse_corpus(args.outcomes, "pass_rates")
        print(f"pass@1: {diagnostics.pass_at_1(rates):.2f}")
        return EXIT_OK
    if args.stat == "entropy":
        summary = diagnostics.entropy_summary(parse_corpus(args.logprobs, "logprobs"))
        if args.svg:
            diagnostics.entropy_histogram_svg(summary, args.svg)
    elif args.stat == "lengths":
        summary = diagnostics.length_summary(
            *token_lengths(parse_corpus(args.path, "trajectories"), FilterConfig()))
    else:
        before, after = diagnostics.split_phases(parse_corpus(args.embeddings, "embeddings"))
        summary = diagnostics.pca_shift(before, after, k=args.k, fit_on=args.fit_on)
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    if args.out:
        write_json(args.out, summary.to_dict())
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = validate_config(args.config, stages=args.stages)
    result = run_pipeline(cfg, out_dir=args.out_dir)
    if result.exit_code != EXIT_OK:
        print(f"pipeline failed at stage {result.failed_stage}: {result.error}",
              file=sys.stderr)
    else:
        for stage, manifest in result.manifests.items():
            print(f"{stage}: questions={manifest.question_count} "
                  f"trajectories={manifest.trajectory_count}")
        if "stats" in cfg["stages"]:
            print(f"wrote report {result.out_dir / 'report.md'}")
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:  # CorpusError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


def console_main() -> int:
    """`main` for a process of its own (`python -m ded.cli`, the `ded`
    script): the heap is frozen once it returns, so that interpreter
    shutdown skips a full collection of it."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())

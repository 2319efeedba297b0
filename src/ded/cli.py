"""Command-line entry point binding all pipeline stages.

Exit codes: 0 ok, 2 config error, 3 stage failure, 4 external-client
failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from .clients import CachingClient, ClientError
from .compress import student_rollout
from .config import ConfigError, validate_config
from .filtering import FilterConfig, run_quality_gate
from .mixer import compose_mix
from .pipeline import (EXIT_CLIENT, EXIT_CONFIG, EXIT_OK, EXIT_STAGE, build_client,
                       run_pipeline, write_diverse, write_filtered, write_hard)
from .records import (CORPUS_KINDS, STAGES, PassRateStats, load_manifest, parse_corpus,
                      read_jsonl, save_manifest, write_corpus, write_json, write_manifest)
from .teacher import (TeacherSelectError, build_smoke_corpus, ingest_scores, rank_teachers,
                      sample_teacher)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ded",
                                     description="Distillation corpus pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus file and write a raw manifest")
    p.set_defaults(handler=_cmd_ingest)
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--kind", default="questions", choices=CORPUS_KINDS)
    p.add_argument("--manifest-out")

    p = sub.add_parser("sample", help="sample teacher trajectories (mock client)")
    p.set_defaults(handler=_cmd_sample)
    p.add_argument("--questions", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--temperature", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixtures")
    p.add_argument("--out", required=True)

    p = sub.add_parser("filter", help="run the format/length/correctness gate")
    p.set_defaults(handler=_cmd_filter)
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--questions", required=True)
    p.add_argument("--max-token-len", type=int, default=16384)
    p.add_argument("--token-estimator", default="chars_div_4_fallback",
                   choices=["precomputed_only", "chars_div_4_fallback"])
    p.add_argument("--out", required=True)
    p.add_argument("--rejects", required=True)
    p.add_argument("--needs-judge", dest="needs_judge", required=True)

    p = sub.add_parser("compress", help="student rollouts and hard-question selection")
    p.set_defaults(handler=_cmd_compress)
    p.add_argument("--questions", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--runs", type=int, default=16)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixtures")
    p.add_argument("--out", required=True)
    p.add_argument("--stats", required=True)

    p = sub.add_parser("diversify", help="farthest-P selection per question")
    p.set_defaults(handler=_cmd_diversify)
    p.add_argument("--in", dest="path", required=True)
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--unit", default="char", choices=["char", "token"])
    p.add_argument("--cap-ratio", type=float, default=0.6)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("mix", help="compose a mixed-domain corpus")
    p.set_defaults(handler=_cmd_mix)
    p.add_argument("--source", action="append", required=True,
                   metavar="PATH:TAKE", help="trajectory file and question count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("smoke", help="build one-sample-per-question teacher corpora")
    p.set_defaults(handler=_cmd_smoke)
    p.add_argument("--questions", required=True)
    p.add_argument("--teachers", required=True, help="comma-separated teacher ids")
    p.add_argument("--temperature", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixtures")
    p.add_argument("--out-dir", required=True)

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
                   help="JSONL with question_id, runs, successes rows")

    p = sub.add_parser("report", help="render report.md from stage manifests")
    p.set_defaults(handler=_cmd_report)
    p.add_argument("--manifest-dir", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("run", help="run the configured pipeline end to end")
    p.set_defaults(handler=_cmd_run)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    return parser


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_ingest(args) -> int:
    records = parse_corpus(args.path, args.kind)
    print(f"parsed {len(records)} {args.kind} records from {args.path}")
    if args.manifest_out:
        manifest = write_manifest("raw", records, config={"source": args.path})
        save_manifest(manifest, args.manifest_out)
        print(f"wrote manifest {args.manifest_out}")
    return EXIT_OK


def _client(args, out_dir: str | Path) -> CachingClient:
    """A sampling subcommand's mock client, cached under DED_CACHE_DIR or else out_dir/.cache."""
    cfg = validate_config({"seed": args.seed, "client": {"fixtures": args.fixtures}})
    return build_client(cfg, Path(out_dir))


def _cmd_sample(args) -> int:
    questions = parse_corpus(args.questions, "questions")
    trajectories = sample_teacher(questions, _client(args, Path(args.out).parent), args.teacher,
                                  args.m, temperature=args.temperature, seed=args.seed)
    write_corpus(args.out, trajectories)
    print(f"sampled {len(trajectories)} trajectories to {args.out}")
    return EXIT_OK


def _cmd_filter(args) -> int:
    trajectories = parse_corpus(args.path, "trajectories")
    questions = parse_corpus(args.questions, "questions")
    config = FilterConfig(max_token_len=args.max_token_len,
                          token_estimator=args.token_estimator)
    gate = run_quality_gate(trajectories, questions, config)
    write_filtered([args.out, args.rejects, args.needs_judge], gate.kept, gate.rejected,
                   gate.needs_judge)
    _emit(gate.counts)
    return EXIT_OK


def _cmd_compress(args) -> int:
    questions = parse_corpus(args.questions, "questions")
    stats = student_rollout(questions, _client(args, Path(args.out).parent), runs=args.runs,
                            student_id=args.student, seed=args.seed)
    *_, report = write_hard([args.stats, args.out], questions, stats, args.tau)
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_diversify(args) -> int:
    trajectories = parse_corpus(args.path, "trajectories")
    selected, *_ = write_diverse([args.out, args.report], trajectories, p=args.p, unit=args.unit,
                                cap_ratio=args.cap_ratio, workers=args.workers)
    print(f"selected {len(selected)} of {len(trajectories)} trajectories")
    return EXIT_OK


def _cmd_mix(args) -> int:
    sources = []
    for spec in args.source:
        path, _, take = spec.rpartition(":")
        if not path or not take.isdigit():
            raise ConfigError([f"--source must look like PATH:TAKE, got {spec!r}"])
        sources.append((parse_corpus(path, "trajectories"), int(take)))
    mixed, provenance = compose_mix(sources, seed=args.seed)
    lines = write_corpus(args.out, mixed)
    manifest = write_manifest("mixed", mixed, config={"mix": provenance}, lines=lines)
    save_manifest(manifest, Path(args.out).with_suffix(".manifest.json"))
    print(f"mixed {len(mixed)} trajectories over "
          f"{manifest.question_count} questions to {args.out}")
    return EXIT_OK


def _cmd_smoke(args) -> int:
    questions = parse_corpus(args.questions, "questions")
    results = build_smoke_corpus(questions, args.teachers.split(","), _client(args, args.out_dir),
                                 temperature=args.temperature, seed=args.seed,
                                 out_dir=args.out_dir)
    for teacher_id, corpus in sorted(results.items()):
        print(f"{teacher_id}: kept {len(corpus.gate.kept)} of {len(questions)}; "
              f"dropped questions: {corpus.dropped_questions or 'none'}")
    return EXIT_OK


def _cmd_rank(args) -> int:
    records = ingest_scores(args.scores)
    weights = None
    if args.weights != "uniform":
        with open(args.weights, "r", encoding="utf-8") as fh:
            try:
                weights = json.load(fh)
                if not isinstance(weights, dict) or {*map(type, weights.values())} - {int, float}:
                    raise ValueError("not a JSON object mapping benchmarks to numbers")
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
                raise TeacherSelectError(f"{args.weights}: {exc}") from exc
    rankings = rank_teachers(records, weights)
    for i, r in enumerate(rankings, start=1):
        print(f"{i}. {r.teacher_id}  score={float(r.score):+.4f}  "
              f"mean_len={r.mean_response_len:.0f}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    from . import diagnostics
    if args.stat == "pass1":
        rows: list[PassRateStats] = []
        read_jsonl(args.outcomes, lambda _, row: rows.append(PassRateStats.from_dict(row)))
        matrix = [[i < s.successes for i in range(s.runs)] for s in rows]
        print(f"pass@1: {diagnostics.pass_at_1(matrix):.2f}")
        return EXIT_OK
    if args.stat == "entropy":
        summary = diagnostics.entropy_summary(parse_corpus(args.logprobs, "logprobs"))
        if args.svg:
            diagnostics.entropy_histogram_svg(summary, args.svg)
    elif args.stat == "lengths":
        summary = diagnostics.length_summary(parse_corpus(args.path, "trajectories"))
    else:
        embeddings = parse_corpus(args.embeddings, "embeddings")
        before = [e for e in embeddings if e.phase == "before"]
        after = [e for e in embeddings if e.phase == "after"]
        summary = diagnostics.pca_shift(before, after, k=args.k, fit_on=args.fit_on)
    _emit(summary.to_dict())
    if args.out:
        write_json(args.out, summary.to_dict())
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import diagnostics
    paths = [Path(args.manifest_dir) / f"manifest_{stage}.json" for stage in STAGES]
    path = diagnostics.emit_report([load_manifest(p) for p in paths if p.exists()],
                                   args.out_dir)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    result = run_pipeline(args.config, out_dir=args.out_dir)
    if result.exit_code != EXIT_OK:
        print(f"pipeline failed at stage {result.failed_stage}: {result.error}",
              file=sys.stderr)
    else:
        for stage, manifest in result.manifests.items():
            print(f"{stage}: questions={manifest.question_count} "
                  f"trajectories={manifest.trajectory_count}")
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except ClientError as exc:
        print(f"client failure: {exc}", file=sys.stderr)
        return EXIT_CLIENT
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

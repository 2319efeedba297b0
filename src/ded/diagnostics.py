"""Corpus diagnostics: token entropy, length statistics, latent centroid
shift under PCA, and pass@1 aggregated over pass-rate counts, plus the
report renderer.

Entropy is reported in nats. The median convention throughout is the lower
of the two central values for even counts, which keeps integer statistics
integral. Absolute entropy and shift values depend entirely on the supplied
logprob and embedding dumps.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .records import (PHASES, CorpusManifest, EmbeddingRecord, LogprobRecord, PassRateStats,
                      replacing)

# Flag the single-bucket residual approximation once it stops being small.
RESIDUAL_FLAG_THRESHOLD = 0.05


class DiagnosticsError(ValueError):
    pass


def token_entropy(record: LogprobRecord) -> float:
    """Shannon entropy in nats of one truncated next-token distribution.

    The residual mass beyond the recorded top-k is treated as a single
    pseudo-token bucket contributing -r*ln(r).
    """
    h = 0.0
    for token, p in record.top_k:
        if p <= 0:
            raise DiagnosticsError(
                f"logprob {record.trajectory_id}@{record.position}: probability {p} <= 0")
        if p < 1.0:
            h -= p * math.log(p)
    r = record.residual_mass
    if r > 0:
        h -= r * math.log(r)
    return h


DEFAULT_ENTROPY_EDGES = [round(i * 0.1, 1) for i in range(31)]  # 0.0 .. 3.0 nats


def central_summary(values: Sequence[float]) -> tuple[float, float]:
    """Exact mean (rational arithmetic) and lower-central median of values."""
    if not values:
        raise DiagnosticsError("central summary needs at least one value")
    return float(statistics.mean(values)), float(statistics.median_low(values))


@dataclass
class EntropySummary:
    mean: float
    median: float
    edges: list[float]
    counts: list[int]
    token_count: int
    mean_residual_mass: float

    @property
    def residual_flagged(self) -> bool:
        return self.mean_residual_mass > RESIDUAL_FLAG_THRESHOLD

    def to_dict(self) -> dict[str, Any]:
        return {"mean": self.mean, "median": self.median, "unit": "nats",
                "histogram": {"edges": list(self.edges), "counts": list(self.counts)},
                "token_count": self.token_count,
                "mean_residual_mass": self.mean_residual_mass,
                "residual_flagged": self.residual_flagged}


def entropy_summary(records: Sequence[LogprobRecord]) -> EntropySummary:
    """Mean, median, and histogram of per-token entropies for a corpus.

    Every token lands in exactly one bucket; values at or beyond the last
    edge fall into the final bucket, so the counts always sum to the token
    count.
    """
    if not records:
        raise DiagnosticsError("entropy summary needs at least one logprob record")
    edges = list(DEFAULT_ENTROPY_EDGES)
    entropies = [token_entropy(r) for r in records]
    buckets = np.searchsorted(edges, entropies, side="right") - 1
    buckets = np.clip(buckets, 0, len(edges) - 2)
    counts = np.bincount(buckets, minlength=len(edges) - 1).tolist()
    mean, median = central_summary(entropies)
    return EntropySummary(
        mean=mean,
        median=median,
        edges=edges,
        counts=counts,
        token_count=len(entropies),
        mean_residual_mass=float(statistics.mean(r.residual_mass for r in records)),
    )


def _percentile_nearest_rank(sorted_values: list, q: float):
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class LengthSummary:
    count: int
    mean: float
    median: int
    minimum: int
    maximum: int
    percentiles: dict[str, int]
    estimated: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"count": self.count, "mean": self.mean, "median": self.median,
                "min": self.minimum, "max": self.maximum,
                "percentiles": dict(self.percentiles), "estimated": self.estimated}


def length_summary(lengths: Sequence[int], estimated: bool = False) -> LengthSummary:
    """Token-length statistics; exact, deterministic. `estimated` marks
    lengths estimated from the text rather than precomputed."""
    if not lengths:
        raise DiagnosticsError("length summary needs at least one length")
    ordered = sorted(lengths)
    return LengthSummary(
        count=len(ordered),
        mean=float(statistics.mean(ordered)),
        median=statistics.median_low(ordered),
        minimum=ordered[0],
        maximum=ordered[-1],
        percentiles={f"p{int(q * 100)}": _percentile_nearest_rank(ordered, q)
                     for q in (0.05, 0.25, 0.5, 0.75, 0.95)},
        estimated=estimated,
    )


@dataclass
class PcaShift:
    components: int
    dis: float
    explained_variance_ratio: list[float]
    degenerate: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"components": self.components, "dis": self.dis,
                "explained_variance_ratio": list(self.explained_variance_ratio),
                "degenerate": self.degenerate}


def split_phases(records: Sequence[EmbeddingRecord]) -> tuple[list[EmbeddingRecord], ...]:
    """An embeddings dump's before and after records, each in dump order."""
    return tuple([r for r in records if r.phase == phase] for phase in PHASES)


def pca_shift(before: Sequence[EmbeddingRecord],
              after: Sequence[EmbeddingRecord],
              k: int = 2,
              fit_on: str = "union") -> PcaShift:
    """Euclidean distance between phase centroids in the top-k PCA space.

    The projection basis is fitted on the union of both phases by default
    (both clouds live in one projected space); fit_on="before" fits on the
    first phase only. Eigenvector signs are fixed by making each
    component's largest-magnitude coordinate positive, so results are
    reproducible across runs.
    """
    if not before or not after:
        raise DiagnosticsError("both phases must be non-empty")
    if fit_on not in ("union", "before"):
        raise DiagnosticsError("fit_on must be union or before")
    xb = np.array([r.vector for r in before], dtype=np.float64)
    xa = np.array([r.vector for r in after], dtype=np.float64)
    if xb.shape[1] != xa.shape[1]:
        raise DiagnosticsError(
            f"dimension mismatch: before has d={xb.shape[1]}, after has d={xa.shape[1]}")
    d = xb.shape[1]
    n_total = len(xb) + len(xa)
    if not (1 <= k <= min(d, n_total)):
        raise DiagnosticsError(f"k must be in [1, min(d={d}, n={n_total})], got {k}")

    fit = np.vstack([xb, xa]) if fit_on == "union" else xb
    center = fit.mean(axis=0)
    fit_centered = fit - center
    _, s, vt = np.linalg.svd(fit_centered, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1

    proj_b = (xb - center) @ components.T
    proj_a = (xa - center) @ components.T
    dis = float(np.linalg.norm(proj_b.mean(axis=0) - proj_a.mean(axis=0)))

    variances = s ** 2
    total = float(variances.sum())
    if total <= 1e-24:
        return PcaShift(components=k, dis=dis,
                        explained_variance_ratio=[0.0] * k, degenerate=True)
    ratios = (variances[:k] / total).tolist()
    ratios += [0.0] * (k - len(ratios))
    return PcaShift(components=k, dis=dis, explained_variance_ratio=ratios)


def pass_at_1(stats: Sequence[PassRateStats]) -> float:
    """Total successes over total runs of questions run equally often, as a
    percentage with two decimals."""
    if not stats:
        raise DiagnosticsError("pass@1 needs at least one question row")
    runs = stats[0].runs
    for s in stats:
        if s.runs != runs:
            raise DiagnosticsError(
                f"stats {s.question_id}: runs {s.runs} differs from {runs} "
                f"of stats {stats[0].question_id}")
    pct = Fraction(sum(s.successes for s in stats), runs * len(stats)) * 100
    return float(round(pct, 2))


def _format_float(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def _cell(value: Any) -> str:
    return _format_float(value) if isinstance(value, float) else str(value)


def emit_report(manifests: Sequence[CorpusManifest],
                out_dir: str | Path,
                entropy: EntropySummary | None = None,
                lengths: LengthSummary | None = None,
                pca: PcaShift | None = None) -> Path:
    """Render the stage ledger and diagnostics as Markdown plus CSV tables.

    Each analysis given gets a section and a table under tables/. Output is
    deterministic for fixed inputs; the Markdown file path is returned.
    """
    out = Path(out_dir)
    lines: list[str] = ["# Corpus report", ""]

    def section(title: str, columns: list[str], rows: list[list[Any]], csv_name: str,
                csv_columns: list[str], csv_rows: list[list[Any]], note: str = "") -> None:
        """A Markdown table under title, then note, and the CSV table written whole."""
        lines.append(f"## {title}")
        lines.append("")
        for row in [columns, ["---"] * len(columns), *rows]:
            lines.append("| " + " | ".join(map(_cell, row)) + " |")
        lines.append("")
        if note:
            lines.append(note)
            lines.append("")
        with replacing(out / "tables" / csv_name) as fh:
            for row in [csv_columns, *csv_rows]:
                fh.write(",".join(map(_cell, row)) + "\n")

    section("Stage ledger", ["stage", "questions", "trajectories", "parent", "hash"],
            [[m.stage, m.question_count, m.trajectory_count, (m.parent_manifest or "-")[:12],
              m.content_hash[:12]] for m in manifests],
            "stage_ledger.csv",
            ["stage", "question_count", "trajectory_count", "parent_manifest", "content_hash"],
            [[m.stage, m.question_count, m.trajectory_count, m.parent_manifest or "",
              m.content_hash] for m in manifests])
    if lengths is not None:
        estimated = "yes" if lengths.estimated else "no"
        section("Token lengths", ["corpus", "count", "mean", "median", "p95", "estimated"],
                [["corpus", lengths.count, lengths.mean, lengths.median,
                  lengths.percentiles["p95"], estimated]],
                "lengths.csv", ["corpus", "count", "mean", "median", "min", "max",
                                *lengths.percentiles, "estimated"],
                [["corpus", lengths.count, lengths.mean, lengths.median, lengths.minimum,
                  lengths.maximum, *lengths.percentiles.values(), estimated]])
    if entropy is not None:
        row = ["corpus", entropy.mean, entropy.median, entropy.token_count,
               entropy.mean_residual_mass]
        note = (f"Note: corpus carries mean residual mass "
                f"{_format_float(entropy.mean_residual_mass)} > {RESIDUAL_FLAG_THRESHOLD}; "
                "entropies use a single-bucket residual approximation and should be read as "
                "approximate.") if entropy.residual_flagged else ""
        section("Token entropy (nats)", ["corpus", "mean", "median", "tokens", "mean residual"],
                [row], "entropy.csv",
                ["corpus", "mean_nats", "median_nats", "token_count", "mean_residual_mass"],
                [row], note)
    if pca is not None:
        ratios = [_format_float(v) for v in pca.explained_variance_ratio]
        flag = " (degenerate: zero variance)" if pca.degenerate else ""
        section("Latent centroid shift (PCA)",
                ["analysis", "components", "dis", "explained variance"],
                [["corpus", pca.components, pca.dis, ", ".join(ratios) + flag]], "pca_shift.csv",
                ["analysis", "components", "dis", "explained_variance_ratio", "degenerate"],
                [["corpus", pca.components, pca.dis, ";".join(ratios),
                  "yes" if pca.degenerate else "no"]])

    lines += [
        "---",
        "Entropy is reported in natural log units (nats); medians use the",
        "lower-central convention for even counts. Entropy and latent-shift",
        "figures are derived solely from the supplied logprob and embedding",
        "dumps, so absolute values depend on the upstream model, tokenizer,",
        "and representation layer.",
        "",
    ]
    report_path = out / "report.md"
    with replacing(report_path) as fh:
        fh.write("\n".join(lines))
    return report_path


def entropy_histogram_svg(summary: EntropySummary, path: str | Path,
                          width: int = 640, height: int = 240) -> Path:
    """Plot-ready SVG histogram of the entropy distribution."""
    path = Path(path)
    counts = summary.counts
    peak = max(counts) or 1
    n = len(counts)
    margin = 30
    bar_w = (width - 2 * margin) / n
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    parts.append(f'<text x="{margin}" y="14" font-size="11">token entropy (nats), '
                 f'n={summary.token_count}, mean={_format_float(summary.mean)}, '
                 f'median={_format_float(summary.median)}</text>')
    for i, c in enumerate(counts):
        h = (height - 2 * margin) * c / peak
        x = margin + i * bar_w
        y = height - margin - h
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.9:.1f}" '
                     f'height="{h:.1f}" fill="#4878a8"/>')
    parts.append(f'<text x="{margin}" y="{height - 8}" font-size="10">'
                 f'{_format_float(summary.edges[0])}</text>')
    parts.append(f'<text x="{width - margin - 20}" y="{height - 8}" font-size="10">'
                 f'{_format_float(summary.edges[-1])}</text>')
    parts.append("</svg>")
    with replacing(path) as fh:
        fh.write("\n".join(parts))
    return path

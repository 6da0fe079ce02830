"""Biometric verification metrics over genuine/imposter score sets.

Convention: higher score = more similar (cosine similarity). A threshold t
classifies a pair as a match iff score >= t, so FNMR(t) is the fraction of
genuine scores below t and FMR(t) the fraction of imposter scores at or
above t.

A ScoreSet sweeps its thresholds once, and EER, FNMR@FMR, AUC and the ROC
all read that sweep's integer counts. Every rate is a count divided by the
population size exactly once, which keeps results bit-identical to an
exhaustive threshold-sweep done with the same convention.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDistributions,
    DimensionMismatch,
    EmptyScores,
    EmptySet,
)
from .model import EumParameters, forward_infer
from .vecmath import normalize_rows


@dataclass
class ScoreSet:
    """Genuine and imposter scores, both non-empty; read-only once built."""

    genuine: np.ndarray
    imposter: np.ndarray

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=np.float64).ravel()
        self.imposter = np.asarray(self.imposter, dtype=np.float64).ravel()
        if self.genuine.size == 0 or self.imposter.size == 0:
            raise EmptyScores(
                f"need both populations, got {self.genuine.size} genuine / "
                f"{self.imposter.size} imposter"
            )

    @cached_property
    def sweep(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(thresholds t ascending, #genuine < t, #imposter < t) over every
        distinct score plus -inf and +inf; computed once, on first use."""
        gen = np.sort(self.genuine)
        imp = np.sort(self.imposter)
        distinct = np.unique(np.concatenate([gen, imp]))
        thresholds = np.concatenate([[-np.inf], distinct, [np.inf]])
        # side="left" counts the scores strictly below each threshold
        return thresholds, np.searchsorted(gen, thresholds), np.searchsorted(imp, thresholds)


@dataclass
class VerificationReport:
    eer: float
    eer_threshold: float
    fmr100: float
    fmr1000: float
    g_mean: float
    i_mean: float
    fdr: float
    auc: float
    n_genuine: int
    n_imposter: int

    def as_dict(self) -> dict:
        return asdict(self)


def _rates(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray]:
    """(fnmr, fmr) at each threshold of the sweep."""
    _, below_gen, below_imp = scores.sweep
    n_imp = scores.imposter.size
    return below_gen / scores.genuine.size, (n_imp - below_imp) / n_imp


def eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Over the sweep, picks the threshold minimizing |FMR - FNMR| (the lowest
    one on ties) and reports the midpoint (FMR + FNMR) / 2 there.
    """
    fnmr, fmr = _rates(scores)
    i = int(np.argmin(np.abs(fmr - fnmr)))  # first occurrence = lowest t
    return (fmr[i] + fnmr[i]) / 2.0, float(scores.sweep[0][i])


def fnmr_at_fmr(scores: ScoreSet, fmr_ceiling: float) -> float:
    """Lowest FNMR among thresholds whose FMR is within the ceiling."""
    if not 0.0 < fmr_ceiling < 1.0:
        raise ValueError(f"fmr ceiling must be in (0, 1), got {fmr_ceiling}")
    fnmr, fmr = _rates(scores)
    # t = +inf always gives FMR 0, so the selection is never empty
    return float(np.min(fnmr[fmr <= fmr_ceiling]))


def means(scores: ScoreSet) -> tuple[float, float]:
    """(mean genuine score, mean imposter score)."""
    return float(np.mean(scores.genuine)), float(np.mean(scores.imposter))


def fdr(scores: ScoreSet) -> float:
    """Fisher discriminant ratio (mu_G - mu_I)^2 / (sigma_G^2 + sigma_I^2).

    Population variances (divided by n); both-zero variance is an error.
    """
    g_mean, i_mean = means(scores)
    var_sum = float(np.var(scores.genuine) + np.var(scores.imposter))
    if var_sum == 0.0:
        raise DegenerateDistributions("both score distributions have zero variance")
    return (g_mean - i_mean) ** 2 / var_sum


def auc(scores: ScoreSet) -> float:
    """P(random genuine > random imposter), ties counted half.

    Computed from exact integer win/tie counts so the value is identical to
    a pair-by-pair enumeration.
    """
    _, below_gen, below_imp = scores.sweep
    # the genuine scores at each threshold beat the imposters below it and
    # tie those at it
    at_gen = np.diff(below_gen)
    wins = int(np.dot(at_gen, below_imp[:-1]))
    ties = int(np.dot(at_gen, np.diff(below_imp)))
    return (wins + 0.5 * ties) / (scores.genuine.size * scores.imposter.size)


def roc(scores: ScoreSet) -> np.ndarray:
    """ROC corners (fmr, 1 - fnmr) sorted from (0, 0) to (1, 1), each once.

    A point inside a run of equal tpr lies on the segment between the run's
    ends and is dropped, so the curve through the at most 2 * n_genuine + 2
    corners is the full sweep's.
    """
    fnmr, fmr = _rates(scores)
    # from the highest threshold down, skipping -inf (it repeats (1, 1))
    fmr, tpr = fmr[:0:-1], 1.0 - fnmr[:0:-1]
    steps = np.diff(tpr) != 0
    corner = np.concatenate([[True], steps]) | np.concatenate([steps, [True]])
    return np.column_stack([fmr[corner], tpr[corner]])


def report(scores: ScoreSet) -> VerificationReport:
    """All metrics of one ScoreSet bundled; rates stored as fractions."""
    eer_rate, eer_thr = eer(scores)
    g_mean, i_mean = means(scores)
    return VerificationReport(
        eer=float(eer_rate),
        eer_threshold=float(eer_thr),
        fmr100=float(fnmr_at_fmr(scores, 0.01)),
        fmr1000=float(fnmr_at_fmr(scores, 0.001)),
        g_mean=float(g_mean),
        i_mean=float(i_mean),
        fdr=float(fdr(scores)),
        auc=float(auc(scores)),
        n_genuine=int(scores.genuine.size),
        n_imposter=int(scores.imposter.size),
    )


def compute_scores(references, probes, eum: EumParameters | None = None) -> ScoreSet:
    """Cosine-score every reference x probe pair and split by identity.

    references/probes expose .identity (n,), .masked (n, bool) and
    .vectors (n, d). Every row is normalized first. With a model, every
    record flagged masked — on either side — then passes through the
    network, which sees unit rows as in training, and its output is
    normalized; without one, the unit embeddings are scored.
    """
    if references.vectors.shape[0] == 0 or probes.vectors.shape[0] == 0:
        raise EmptySet(
            f"{references.vectors.shape[0]} references x "
            f"{probes.vectors.shape[0]} probes"
        )
    if references.vectors.shape[1] != probes.vectors.shape[1]:
        raise DimensionMismatch(
            f"reference d {references.vectors.shape[1]} vs probe d "
            f"{probes.vectors.shape[1]}"
        )

    def side(vectors: np.ndarray, masked: np.ndarray) -> np.ndarray:
        v = normalize_rows(vectors)
        if eum is not None and np.any(masked):
            if eum.d != v.shape[1]:
                raise DimensionMismatch(
                    f"model d {eum.d} vs embedding d {v.shape[1]}"
                )
            v[masked] = normalize_rows(forward_infer(eum, v[masked]))
        return v

    ref_units = side(references.vectors, references.masked)
    probe_units = side(probes.vectors, probes.masked)
    sim = ref_units @ probe_units.T
    genuine_mask = references.identity[:, None] == probes.identity[None, :]
    return ScoreSet(genuine=sim[genuine_mask], imposter=sim[~genuine_mask])

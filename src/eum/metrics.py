"""Biometric verification metrics over genuine/imposter score sets.

Convention: higher score = more similar (cosine similarity). A threshold t
classifies a pair as a match iff score >= t, so FNMR(t) is the fraction of
genuine scores below t and FMR(t) the fraction of imposter scores at or
above t.

Each metric equals an exhaustive sweep over -inf, every distinct score and
+inf, read from the genuine side: FNMR only changes at a genuine score, so
a ScoreSet sorts each population once and counts the imposters below and at
each distinct genuine score. Every rate is a count divided by the population
size exactly once, as in the sweep, so results are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDistributions, DimensionMismatch, EmptyScores, EmptySet
from .model import EumParameters, forward_infer
from .vecmath import normalize_rows


@dataclass
class ScoreSet:
    """Genuine and imposter scores, both non-empty; read-only once built.

    The sorts, the counts per run of constant FNMR and the means are cached
    on first use, so a report and its ROC sort the imposters once."""

    genuine: np.ndarray
    imposter: np.ndarray

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=np.float64).ravel()
        self.imposter = np.asarray(self.imposter, dtype=np.float64).ravel()
        n_gen, n_imp = self.genuine.size, self.imposter.size
        if n_gen == 0 or n_imp == 0:
            raise EmptyScores(f"need both populations, got {n_gen} genuine / {n_imp} imposter")

    @cached_property
    def sorted_scores(self) -> tuple[np.ndarray, np.ndarray]:
        return np.sort(self.genuine), np.sort(self.imposter)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(u[j], #genuine < u[j], #imposter < u[j], #imposter <= u[j-1]) per
        run (u[j-1], u[j]] of thresholds, on which FNMR is constant; u holds
        the distinct genuine scores ascending, then +inf, and u[-1] = -inf."""
        gen, imp = self.sorted_scores
        u, gen_below = np.unique(np.append(gen, np.inf), return_index=True)
        imp_floor = np.insert(np.searchsorted(imp, u[:-1], side="right"), 0, 0)
        return u, gen_below, np.searchsorted(imp, u), imp_floor

    @cached_property
    def mean_scores(self) -> tuple[float, float]:
        return float(np.mean(self.genuine)), float(np.mean(self.imposter))


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


def eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Over the sweep, picks the threshold minimizing |FMR - FNMR| (the lowest
    one on ties) and reports the midpoint (FMR + FNMR) / 2 there. FMR - FNMR
    falls at each step of the sweep but the first (-inf to the lowest score),
    so only -inf and the thresholds around its sign change are candidates:
    the run where it turns negative and the top of the run below."""
    gen, imp = scores.sorted_scores
    top, gen_below, imp_below, imp_floor = scores.runs
    gap = (imp.size - imp_below) / imp.size - gen_below / gen.size
    j = int(np.argmax(gap < 0))  # -1 at +inf, so always found
    run = imp[imp_floor[j] : imp_below[j]]
    t = np.concatenate([[-np.inf], top[max(j - 1, 0) : j], run, top[j : j + 1]])
    fnmr = np.searchsorted(gen, t) / gen.size
    fmr = (imp.size - np.searchsorted(imp, t)) / imp.size
    i = int(np.argmin(np.abs(fmr - fnmr)))  # first occurrence = lowest t
    return (fmr[i] + fnmr[i]) / 2.0, float(t[i])


def fnmr_at_fmr(scores: ScoreSet, fmr_ceiling: float) -> float:
    """Lowest FNMR among thresholds whose FMR is within the ceiling."""
    if not 0.0 < fmr_ceiling < 1.0:
        raise ValueError(f"fmr ceiling must be in (0, 1), got {fmr_ceiling}")
    gen, imp = scores.sorted_scores
    n = imp.size
    # the most imposters k at or above t with FMR k / n within the ceiling;
    # fmr_ceiling * n is off by less than 1, so the search starts at or above k
    k = int(fmr_ceiling * n) + 1
    while k / n > fmr_ceiling:
        k -= 1
    # FNMR rises with t: the lowest such t is the next score above imp[n - k - 1]
    return float(np.searchsorted(gen, imp[n - k - 1], side="right") / gen.size)


def means(scores: ScoreSet) -> tuple[float, float]:
    """(mean genuine score, mean imposter score)."""
    return scores.mean_scores


def fdr(scores: ScoreSet) -> float:
    """Fisher discriminant ratio (mu_G - mu_I)^2 / (sigma_G^2 + sigma_I^2).

    Population variances (divided by n); both-zero variance is an error."""
    g_mean, i_mean = means(scores)
    var_sum = float(np.var(scores.genuine) + np.var(scores.imposter))
    if var_sum == 0.0:
        raise DegenerateDistributions("both score distributions have zero variance")
    return (g_mean - i_mean) ** 2 / var_sum


def auc(scores: ScoreSet) -> float:
    """P(random genuine > random imposter), ties counted half.

    Computed from exact integer win/tie counts so the value is identical to
    a pair-by-pair enumeration."""
    _, gen_below, imp_below, imp_floor = scores.runs
    # the genuine scores at each u beat the imposters below it and tie those at it
    at_u = np.diff(gen_below)
    wins = int(np.dot(at_u, imp_below[:-1]))
    ties = int(np.dot(at_u, imp_floor[1:] - imp_below[:-1]))
    return (wins + 0.5 * ties) / (scores.genuine.size * scores.imposter.size)


def roc(scores: ScoreSet) -> np.ndarray:
    """ROC corners (fmr, 1 - fnmr) sorted from (0, 0) to (1, 1), each once.

    A point inside a run of equal tpr lies on the segment between the run's
    ends and is dropped, so the curve through the at most 2 * n_genuine + 2
    corners is the full sweep's. A run's ends are its top u and, if imposters
    lie inside it, the first score above the run below (or the lowest score)."""
    _, gen_below, imp_below, imp_floor = scores.runs
    n_imp = scores.imposter.size
    fmr = (n_imp - np.column_stack([imp_below, imp_floor])) / n_imp
    tpr = np.repeat(1.0 - gen_below / scores.genuine.size, 2).reshape(-1, 2)
    ends = np.column_stack([np.full(gen_below.size, True), imp_floor < imp_below])
    return np.stack([fmr, tpr], axis=-1)[::-1][ends[::-1]]  # highest threshold first


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
    (n_ref, d_ref), (n_probe, d_probe) = references.vectors.shape, probes.vectors.shape
    if n_ref == 0 or n_probe == 0:
        raise EmptySet(f"{n_ref} references x {n_probe} probes")
    if d_ref != d_probe:
        raise DimensionMismatch(f"reference d {d_ref} vs probe d {d_probe}")

    def side(records) -> np.ndarray:
        v, masked = normalize_rows(records.vectors), records.masked
        if eum is not None and np.any(masked):
            if eum.d != v.shape[1]:
                raise DimensionMismatch(f"model d {eum.d} vs embedding d {v.shape[1]}")
            v[masked] = normalize_rows(forward_infer(eum, v[masked]))
        return v

    sim = side(references) @ side(probes).T
    genuine_mask = references.identity[:, None] == probes.identity[None, :]
    return ScoreSet(genuine=sim[genuine_mask], imposter=sim[~genuine_mask])

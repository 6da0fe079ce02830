"""Biometric verification metrics over genuine/imposter score sets.

Convention: higher score = more similar (cosine similarity). A threshold t
classifies a pair as a match iff score >= t, so FNMR(t) is the fraction of
genuine scores below t and FMR(t) the fraction of imposter scores at or
above t.

Every rate is an integer count divided by the population size exactly once,
which keeps results bit-identical to an exhaustive threshold-sweep done with
the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    genuine: np.ndarray
    imposter: np.ndarray

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=np.float64).ravel()
        self.imposter = np.asarray(self.imposter, dtype=np.float64).ravel()


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
        return {
            "eer": self.eer,
            "eer_threshold": self.eer_threshold,
            "fmr100": self.fmr100,
            "fmr1000": self.fmr1000,
            "g_mean": self.g_mean,
            "i_mean": self.i_mean,
            "fdr": self.fdr,
            "auc": self.auc,
            "n_genuine": self.n_genuine,
            "n_imposter": self.n_imposter,
        }


def _require_nonempty(scores: ScoreSet) -> None:
    if scores.genuine.size == 0 or scores.imposter.size == 0:
        raise EmptyScores(
            f"need both populations, got {scores.genuine.size} genuine / "
            f"{scores.imposter.size} imposter"
        )


def _sweep(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, fnmr, fmr) over all distinct observed scores plus +-inf."""
    gen = np.sort(scores.genuine)
    imp = np.sort(scores.imposter)
    thresholds = np.concatenate(
        [[-np.inf], np.unique(np.concatenate([gen, imp])), [np.inf]]
    )
    n_gen = gen.size
    n_imp = imp.size
    below_gen = np.searchsorted(gen, thresholds, side="left")  # genuine < t
    below_imp = np.searchsorted(imp, thresholds, side="left")  # imposter < t
    fnmr = below_gen / n_gen
    fmr = (n_imp - below_imp) / n_imp
    return thresholds, fnmr, fmr


def eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Over the sweep, picks the threshold minimizing |FMR - FNMR| (the lowest
    one on ties) and reports the midpoint (FMR + FNMR) / 2 there.
    """
    _require_nonempty(scores)
    thresholds, fnmr, fmr = _sweep(scores)
    i = int(np.argmin(np.abs(fmr - fnmr)))  # first occurrence = lowest t
    return (fmr[i] + fnmr[i]) / 2.0, float(thresholds[i])


def fnmr_at_fmr(scores: ScoreSet, fmr_ceiling: float) -> float:
    """Lowest FNMR among thresholds whose FMR is within the ceiling."""
    if not 0.0 < fmr_ceiling < 1.0:
        raise ValueError(f"fmr ceiling must be in (0, 1), got {fmr_ceiling}")
    _require_nonempty(scores)
    _, fnmr, fmr = _sweep(scores)
    # t = +inf always gives FMR 0, so the selection is never empty
    return float(np.min(fnmr[fmr <= fmr_ceiling]))


def means(scores: ScoreSet) -> tuple[float, float]:
    """(mean genuine score, mean imposter score)."""
    _require_nonempty(scores)
    return float(np.mean(scores.genuine)), float(np.mean(scores.imposter))


def fdr(scores: ScoreSet) -> float:
    """Fisher discriminant ratio (mu_G - mu_I)^2 / (sigma_G^2 + sigma_I^2).

    Population variances (divided by n); both-zero variance is an error.
    """
    _require_nonempty(scores)
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
    _require_nonempty(scores)
    imp = np.sort(scores.imposter)
    wins = int(np.sum(np.searchsorted(imp, scores.genuine, side="left")))
    upto = int(np.sum(np.searchsorted(imp, scores.genuine, side="right")))
    ties = upto - wins
    return (wins + 0.5 * ties) / (scores.genuine.size * imp.size)


def roc(scores: ScoreSet) -> tuple[np.ndarray, float]:
    """ROC points (fmr, 1 - fnmr) sorted by fmr, plus the rank-statistic AUC."""
    _require_nonempty(scores)
    _, fnmr, fmr = _sweep(scores)
    tpr = 1.0 - fnmr
    order = np.lexsort((tpr, fmr))
    points = np.column_stack([fmr[order], tpr[order]])
    return points, auc(scores)


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


def compute_scores(
    references,
    probes,
    eum: EumParameters | None = None,
    apply_to: str = "masked",
) -> ScoreSet:
    """Cosine-score every reference x probe pair and split by identity.

    references/probes expose .identity (n,), .masked (n, bool) and
    .vectors (n, d). With a model and apply_to="masked", every record
    flagged masked — on either side — is passed through the network before
    scoring. apply_to="none" disables the model entirely.
    """
    if apply_to not in ("masked", "none"):
        raise ValueError(f"apply_to must be 'masked' or 'none', got {apply_to!r}")
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
        v = np.asarray(vectors, dtype=np.float64)
        if eum is not None and apply_to == "masked" and np.any(masked):
            if eum.d != v.shape[1]:
                raise DimensionMismatch(
                    f"model d {eum.d} vs embedding d {v.shape[1]}"
                )
            v = v.copy()
            v[masked] = forward_infer(eum, v[masked])
        return normalize_rows(v)

    ref_units = side(references.vectors, references.masked)
    probe_units = side(probes.vectors, probes.masked)
    sim = ref_units @ probe_units.T
    genuine_mask = references.identity[:, None] == probes.identity[None, :]
    return ScoreSet(genuine=sim[genuine_mask], imposter=sim[~genuine_mask])

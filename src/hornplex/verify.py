"""Numerical verification of the per-dimension rule-injection inequalities.

The chain-composition claim states that when relation embeddings satisfy the
entailment construction (real part of the head at least the normalized body
product, imaginary parts equal) and entities realize the body triples with
aligned phases (each body step's phase sum is zero), the per-dimension score
of the head triple dominates the product of the body scores. Two
normalizations of that product appear in the source material -- by 2R for the
two-step composition form and by R for the general chain form -- and they do
not coincide; each checker reports its own form as primary and the other as
an informational count.

The checkers are randomized but seeded, so reports are reproducible. The
unrestricted search drops the phase alignment and reports how often the
inequality fails outside the proof regime (informational only). Negative
controls deliberately break the head construction to prove the checkers are
not vacuous.
"""

from dataclasses import dataclass

import numpy as np

from . import training
from .kernel import RuleArrays, body_product, cmul
from .model import project_relation_components, replacing, write_provenance

__all__ = [
    "TheoremReport",
    "check_sufficient_condition_composition",
    "check_sufficient_condition_horn",
    "counterexample_search_unrestricted",
    "numerical_gradient",
    "gradient_check",
    "format_report",
    "write_reports",
    "default_suite",
]

TOLERANCE = 1e-9


@dataclass
class TheoremReport:
    kind: str
    k: int
    d: int
    bound: float
    seed: int
    trials: int
    skipped: int
    violations: int
    violations_alt: int
    max_violation: float
    tolerance: float = TOLERANCE

    @property
    def checked(self):
        return self.trials - self.skipped

    @property
    def ok(self):
        return self.violations == 0


# Left side minus right side of each inequality form, per trial and
# dimension, from the body scores phi (trials, d, k) and the head score
# phi_h (trials, d) of a chain, and the bound R.
_FORMS = {
    # prod_i |phi_i/(2R)| <= |phi_h/(2R)|: the two-step composition form
    "2R": lambda phi, phi_h, R: np.abs(phi / (2 * R)).prod(axis=2) - np.abs(phi_h / (2 * R)),
    # prod_i (phi_i/R) <= phi_h/R: the chain form
    "R": lambda phi, phi_h, R: (phi / R).prod(axis=2) - phi_h / R,
    # prod_i |phi_i/R| <= phi_h/R
    "R-abs": lambda phi, phi_h, R: np.abs(phi / R).prod(axis=2) - phi_h / R,
}


def _phi(z0, r, z1):
    """Re(z0 * r * conj(z1)) element-wise, for complex arrays stacked
    [re, im] on their first axis."""
    p_re, p_im = cmul(*z0, *r)
    return p_re * z1[0] + p_im * z1[1]


def _sample_chain(rng, trials, k, d, bound):
    """Feasible body relations whose per-dimension phases sum to at most pi/2,
    as (theta_total, theta_r, r) with r a (2, trials, d, k) [re, im] array.

    The budgeted phases guarantee that entities realizing all body triples
    with aligned phases exist inside the entity box, which is the regime the
    chain inequality is proved in.
    """
    theta_total = rng.uniform(0.0, np.pi / 2.0, size=(trials, d))
    if k == 1:
        weights = np.ones((trials, d, 1))
    else:
        weights = rng.dirichlet(np.ones(k), size=(trials, d))
    theta_r = weights * theta_total[:, :, None]  # (trials, d, k)
    moduli = rng.uniform(0.0, bound, size=(trials, d, k))
    return theta_total, theta_r, moduli * np.stack([np.cos(theta_r), np.sin(theta_r)])


def _construct_head(rng, r, bound, negative_control):
    """Head relation from the body product: real part gets non-negative slack
    (capped at the bound), imaginary part matches exactly. Dimensions the
    projection has to alter (modulus above the bound) invalidate the trial.
    Returns the projected head, a (2, trials, d) [re, im] array, and the
    trials to skip."""
    k = r.shape[3]
    # normalized product R * prod(r_i / R)
    hat_re, hat_im = body_product(r.transpose(0, 3, 1, 2)) / bound ** (k - 1)

    if negative_control:
        head_re = np.zeros_like(hat_re)
    else:
        # Random non-negative slack, clipped to the modulus headroom so the
        # construction stays feasible (projection then only bites on
        # floating-point edge cases, which are skipped).
        headroom = np.maximum(np.sqrt(np.maximum(bound**2 - hat_im**2, 0.0)) - hat_re, 0.0)
        slack = np.minimum(rng.uniform(0.0, bound / 10.0, size=hat_re.shape), headroom)
        head_re = np.minimum(bound, hat_re + slack)
    head = np.stack([head_re, hat_im])
    projected = head.copy()
    project_relation_components(*projected, bound)
    return projected, (projected != head).any(axis=(0, 2))


def _entities(rng, theta_total, theta_r, draw):
    """Entity chain z_0..z_k inside the entity box, a (2, trials, d, k+1)
    [re, im] array. ``draw`` is "aligned", "capped" or "unaligned". Aligned
    chains have telescoping phases: each body step's phase sum
    r_i + z_{i-1} - z_i is exactly zero. Capped ones are aligned with the
    intermediate moduli capped at 1 (the regime in which the R-normalized
    chain product is dominated). Unaligned ones draw every phase on
    [0, pi/2]."""
    trials, d, k = theta_r.shape
    if draw == "unaligned":
        theta_z = rng.uniform(0.0, np.pi / 2.0, size=(trials, d, k + 1))
    else:
        theta_z0 = rng.uniform(0.0, 1.0, size=(trials, d)) * (np.pi / 2.0 - theta_total)
        theta_z = np.empty((trials, d, k + 1))
        theta_z[:, :, 0] = theta_z0
        theta_z[:, :, 1:] = theta_z0[:, :, None] + np.cumsum(theta_r, axis=2)

    # the largest modulus keeping both components of exp(i*theta) within [0, 1]
    max_mod = 1.0 / np.maximum(np.cos(theta_z), np.sin(theta_z))
    if draw == "capped" and k > 1:
        max_mod[:, :, 1:k] = np.minimum(max_mod[:, :, 1:k], 1.0)
    moduli = rng.uniform(0.0, 1.0, size=(trials, d, k + 1)) * max_mod
    return moduli * np.stack([np.cos(theta_z), np.sin(theta_z)])


def _chain_check(kind, k, d, bound, trials, seed, negative_control, draw, forms):
    """The seeded chain check behind every public checker: sample the body
    relations, build the head, draw the entities as ``_entities`` does for
    ``draw``, score the body and head triples and count the trials with a
    dimension whose primary form of ``forms`` (a pair of ``_FORMS`` keys,
    primary first) exceeds ``TOLERANCE``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = np.random.default_rng(seed)
    theta_total, theta_r, r = _sample_chain(rng, trials, k, d, bound)
    head, skip = _construct_head(rng, r, bound, negative_control)
    z = _entities(rng, theta_total, theta_r, draw)

    phi_body = _phi(z[..., :k], r, z[..., 1:])  # (trials, d, k)
    phi_head = _phi(z[..., 0], head, z[..., k])
    excess, excess_alt = (_FORMS[form](phi_body, phi_head, bound) for form in forms)

    keep = ~skip
    viol_dim = (excess > TOLERANCE) & keep[:, None]
    viol_alt_dim = (excess_alt > TOLERANCE) & keep[:, None]
    violations = int(viol_dim.any(axis=1).sum())
    return TheoremReport(
        kind=kind + ("-control" if negative_control else ""),
        k=k,
        d=d,
        bound=bound,
        seed=seed,
        trials=trials,
        skipped=int(skip.sum()),
        violations=violations,
        violations_alt=int(viol_alt_dim.any(axis=1).sum()),
        max_violation=float(excess[viol_dim].max()) if violations else 0.0,
    )


def check_sufficient_condition_composition(
    d, bound=1.0, trials=10000, seed=0, negative_control=False
):
    """Two-step chain check: |phi_1/(2R)| * |phi_2/(2R)| <= |phi_3/(2R)| + tol
    per dimension, with the head satisfying the entailment construction and
    phase-aligned entities. The R-normalized variant is counted as
    ``violations_alt``."""
    return _chain_check(
        "composition", 2, d, bound, trials, seed, negative_control, "aligned", ("2R", "R-abs")
    )


def check_sufficient_condition_horn(k, d, bound=1.0, trials=10000, seed=0, negative_control=False):
    """Length-k chain check: prod_i(phi_i/R) <= phi_head/R + tol per dimension.

    Intermediate entity moduli are capped at 1: the R-normalized product picks
    up a factor |z_i|^2 per intermediate entity, so moduli above 1 escape the
    regime the inequality is proved in (the 2R-normalized variant, counted as
    ``violations_alt``, tolerates moduli up to sqrt(2))."""
    return _chain_check(
        "horn", k, d, bound, trials, seed, negative_control, "capped", ("R", "2R")
    )


def counterexample_search_unrestricted(k, d, bound=1.0, trials=10000, seed=0):
    """Same relation construction, but entities sampled feasibly WITHOUT the
    phase alignment; reports how often prod_i |phi_i/R| exceeds the signed
    phi_head/R. Informational: the alignment is a premise of the proof, not a
    consequence of the constraints."""
    return _chain_check(
        "unrestricted", k, d, bound, trials, seed, False, "unaligned", ("R-abs", "2R")
    )


def numerical_gradient(f, x, step=1e-6):
    """Central finite differences of a scalar function ``f(x)``, coordinate by
    coordinate. Each coordinate of the float64 array ``x`` is moved in place
    and restored after its two calls, so ``f`` may read ``x`` through a view."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        value = x.flat[i]
        x.flat[i] = value + step
        up = f(x)
        x.flat[i] = value - step
        down = f(x)
        x.flat[i] = value
        grad.flat[i] = (up - down) / (2.0 * step)
    return grad


def gradient_check(function, table, batch=None, rules=None, mu=1.0, eta=1.0):
    """Max relative error |analytic - numeric| / max(1, |analytic|) over all
    embedding coordinates, for ``function`` in {'logistic', 'rule_penalty',
    'n3', 'total'}. N3 covers every row; 'total' is the objective of one
    training step, ``training.step_gradients``, whose N3 covers the rows the
    step touches. The analytic gradient is ``training.merge_row_grads`` of
    the loss's own RowGrads, which every loss gives over the table's row
    space, as the terms block with no rule block. The numeric one moves one
    coordinate of a copy of ``table``'s row-space matrix at a time, entity
    rows first. Raises on non-finite values."""
    if rules is not None:
        rules = RuleArrays.from_rules(rules, table.num_relations, table.dim)

    def parts(tbl):
        """(loss, RowGrads over the row space)."""
        if function == "logistic":
            return training.logistic_loss(tbl, batch)
        if function == "rule_penalty":
            return training.rule_penalty(tbl, rules)
        if function == "n3":
            return training.n3_regularization(tbl, np.arange(len(tbl.matrix)))
        if function == "total":
            (l_loss, r_loss, n_loss), grads = training.step_gradients(tbl, batch, rules, mu, eta)
            return l_loss + mu * r_loss + eta * n_loss, grads
        raise ValueError(f"unknown function {function!r}")

    work = table.copy()
    loss, grads = parts(work)
    grads = training.merge_row_grads(grads, None)
    analytic = np.zeros_like(work.matrix)
    analytic[grads.rows] = np.hstack(grads.values)
    numeric = numerical_gradient(lambda _: parts(work)[0], work.matrix)
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all() and np.isfinite(loss)):
        raise ValueError("non-finite values encountered during gradient check")
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))))


def format_report(report):
    return (
        f"{report.kind} k={report.k} d={report.d} R={report.bound:g} "
        f"seed={report.seed} trials={report.trials} checked={report.checked} "
        f"skipped={report.skipped} violations={report.violations} "
        f"violations_alt={report.violations_alt} "
        f"max_violation={report.max_violation:.3e} tol={report.tolerance:g}"
    )


def write_reports(path, reports, extra=None):
    """One structured text record per configuration, written to a temporary
    file that then replaces ``path``."""
    with replacing(path, encoding="utf-8") as handle:
        write_provenance(handle, extra)
        for report in reports:
            handle.write(format_report(report) + "\n")


def default_suite(trials=10000, seed=0, bound=1.0, dims=(2, 8, 32), ks=(1, 2, 3)):
    """The acceptance configuration: composition and horn checks over the
    (k, d) grid plus negative controls. Returns (reports, controls, passed)
    where ``passed`` requires zero violations in every check and at least one
    violation in every control."""
    reports = []
    controls = []
    for d in dims:
        reports.append(
            check_sufficient_condition_composition(d, bound, trials=trials, seed=seed)
        )
        for k in ks:
            reports.append(
                check_sufficient_condition_horn(k, d, bound, trials=trials, seed=seed)
            )
    controls.append(
        check_sufficient_condition_composition(
            dims[0], bound, trials=trials, seed=seed, negative_control=True
        )
    )
    controls.append(
        check_sufficient_condition_horn(
            ks[-1], dims[0], bound, trials=trials, seed=seed, negative_control=True
        )
    )
    passed = all(r.violations == 0 for r in reports) and all(
        c.violations > 0 for c in controls
    )
    return reports, controls, passed

"""One pass of the user pipeline over generated files, its checks and metrics.

A pass is: load the TSV splits and parse the rules (setup), ``train``,
``evaluate``, ``relation_rule_diagnostics`` and ``ground_confidence`` on every
rule. Every call into hornplex goes through a module attribute, so the tracer
can wrap it from outside. ``sys.path`` must already hold ``src`` and
``tests`` (see ``run.py``).
"""

import io
import os
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from calibrate import Clock
from hornplex import evaluation, experiments, kg as kg_mod, model, rules as rules_mod, training
from oracles import brute_force_filtered_rank

# Share of --seconds each phase gets in a repeated pass. Training length is
# fixed from its share and the workload's nominal epoch time. The other
# phases run in ROUNDS rounds, spread evenly through training and after it.
SHARES = {"setup": 0.2, "train": 0.45, "eval": 0.2, "diagnostics": 0.12, "confidence": 0.03}
ROUNDS = 8
EVAL_CHUNK = 16  # triples ranked per evaluate() call
MIN_SAMPLE_S = 0.005
ORACLE_SAMPLE = 5
SPLITS = ("train", "valid", "test")

# (attribute the caller looks up, span name, counter)
TRACE_TARGETS = [
    ("hornplex.kg.load_graph", "kg.load_graph", None),
    ("hornplex.kg.load_triples", "kg.load_triples", None),
    ("hornplex.kg.build_graph", "kg.build_graph", None),
    ("hornplex.rules.parse_rules", "rules.parse_rules", None),
    ("hornplex.rules.ground_confidence", "rules.ground_confidence", None),
    ("hornplex.training.train", "training.train", None),
    ("hornplex.training.sample_negatives_batch", "training.sample_negatives_batch", None),
    ("hornplex.training.logistic_loss", "training.logistic_loss", None),
    ("hornplex.training.rule_penalty", "training.rule_penalty", None),
    ("hornplex.training.n3_regularization", "training.n3_regularization", None),
    ("hornplex.training.merge_row_grads", "training.merge_row_grads", None),
    (
        "hornplex.training.adagrad_step",
        "training.adagrad_step",
        lambda tr, args, _: tr.count(
            "adagrad_rows", sum(g.rows.size for g in (args[1].entities, args[1].relations))
        ),
    ),
    (
        "hornplex.training.project",
        "model.project",
        lambda tr, args, _: tr.count(
            "projected_rows", args[0].num_entities + args[0].num_relations
        ),
    ),
    ("hornplex.evaluation.evaluate", "evaluation.evaluate", None),
    ("hornplex.evaluation.filtered_rank", "evaluation.filtered_rank", None),
    ("hornplex.evaluation.score_all_tails", "evaluation.score", None),
    ("hornplex.evaluation.score_all_heads", "evaluation.score", None),
    ("hornplex.evaluation.relation_rule_diagnostics", "evaluation.relation_rule_diagnostics", None),
]


def repeat(calls, work, budget_s, clock):
    """Run ``calls`` in turn, every one at least once, then on from the first
    again until ``budget_s`` has passed. Calls are timed in samples of at
    least MIN_SAMPLE_S, so that a fast call is not timed alone. Return the
    results of the first turn and the (start, seconds, units of work) of
    every sample."""
    first, samples = [], []
    done = 0
    start = time.perf_counter()
    while done < len(calls) or time.perf_counter() - start < budget_s:
        clock.tick()
        t0 = time.perf_counter()
        units = 0
        while True:
            result = calls[done % len(calls)]()
            units += work(result)
            done += 1
            if len(first) < len(calls):
                first.append(result)
            result = None  # free it first, so the results of repeats never overlap
            seconds = time.perf_counter() - t0
            if seconds >= MIN_SAMPLE_S:
                break
        samples.append((t0, seconds, units))
        clock.tick()
    return first, samples


def setup(work_dir):
    paths = [os.path.join(work_dir, f"{split}.tsv") for split in SPLITS]
    kg = kg_mod.load_graph(*paths)
    rules = rules_mod.parse_rules(os.path.join(work_dir, "rules.tsv"), kg.relation_ids)
    return kg, rules


def distinct_facts(work_dir):
    lines = set()
    for split in SPLITS:
        with open(os.path.join(work_dir, f"{split}.tsv"), encoding="utf-8") as handle:
            lines.update(handle)
    return len(lines)


def confidences(kg, rules):
    out = []
    for rule in rules:
        try:
            out.append(rules_mod.ground_confidence(kg, rule))
        except KeyError:
            out.append(KeyError)
    return out


@dataclass
class Pass:
    kg: object = None
    rules: list = None
    epochs: int = 0
    batch_size: int = 0
    planned_steps: int = 0
    step_s: list = field(default_factory=list)  # wall time of each training step
    step_t0: list = field(default_factory=list)  # when each training step started
    table: object = None
    eval_split: list = None
    entries: list = None  # RankEntry per (triple, side) of eval_split, in order
    diagnostics: list = None
    confidences: list = None
    # phase -> (start, seconds, units of work) per repeat, in run order; a
    # unit is a set-up, a ranked query or a rule
    samples: dict = field(default_factory=dict)
    clock: Clock = None
    wall_s: float = 0.0

    @property
    def mrr(self):
        return float(np.mean(1.0 / np.array([e.rank for e in self.entries])))


def run_pass(workload, work_dir, seed, seconds, repeated):
    """Run the pipeline. ``repeated`` gives each phase its share of
    ``seconds``; every phase but training then runs in ROUNDS rounds:
    ROUNDS - 1 between training steps (on the table as it is then, with a
    slice of the eval split) and the last on the trained table. Otherwise
    every phase runs once. A repeated pass times the calibration loops
    (``calibrate.Clock``) around every sample."""
    p = Pass(clock=Clock(enabled=repeated))
    p.clock.tick(force=True)
    t0 = time.perf_counter()
    kg, rules = p.kg, p.rules = setup(work_dir)
    p.samples["setup"] = [(t0, time.perf_counter() - t0, 1)]

    p.epochs = workload.epochs(seconds, SHARES["train"])
    config = replace(
        experiments.default_experiment_config(seed), mu=1.0, validate_every=0, epochs=p.epochs
    )
    p.batch_size = config.batch_size
    p.planned_steps = p.epochs * -(-len(kg.train) // config.batch_size)

    p.eval_split = list(kg.test)
    if workload.eval_sample and len(p.eval_split) > workload.eval_sample:
        rng = np.random.default_rng([seed, 2])
        keep = np.sort(rng.choice(len(p.eval_split), workload.eval_sample, replace=False))
        p.eval_split = [p.eval_split[i] for i in keep]

    rounds = ROUNDS if repeated else 1
    parts = iter([p.eval_split[i :: rounds - 1] for i in range(rounds - 1)])
    due = {round(p.planned_steps * i / rounds) for i in range(1, rounds)}

    def sample(phase, calls, work):
        budget = SHARES[phase] * seconds / rounds if repeated else 0.0
        first, samples = repeat(calls, work, budget, p.clock)
        p.samples.setdefault(phase, []).extend(samples)
        return first

    def run_round(table, split):
        """Every phase but training once on ``table``; returns the rank
        entries of ``split``, the rule diagnostics and the confidences."""
        if repeated:
            # Each graph is dropped on return, so set-ups never hold two at once.
            sample("setup", [lambda: setup(work_dir) and None], lambda _: 1)
        # The split is ranked in chunks, so that each timed call is short
        # enough for the calibration loops around it to read its speed.
        chunks = [split[i : i + EVAL_CHUNK] for i in range(0, len(split), EVAL_CHUNK)]
        reports = sample(
            "eval",
            [lambda c=c: evaluation.evaluate(table, kg, c) for c in chunks],
            lambda r: r.count,
        )
        (diagnostics,) = sample(
            "diagnostics",
            [lambda: evaluation.relation_rule_diagnostics(table, rules)],
            lambda _: len(rules),
        )
        (confidence,) = sample("confidence", [lambda: confidences(kg, rules)], lambda _: len(rules))
        return [e for r in reports for e in r.entries], diagnostics, confidence

    p.clock.tick()
    resume = time.perf_counter()

    def on_step(table, epoch, step):
        nonlocal resume
        p.step_s.append(time.perf_counter() - resume)
        p.step_t0.append(resume)
        p.table = table
        p.clock.tick()
        if len(p.step_s) in due:
            run_round(table, next(parts))
        resume = time.perf_counter()

    try:
        p.table, _, _ = training.train(kg, rules, config, step_callback=on_step)
    except training.TrainingDiverged:
        pass  # counted as failed steps; p.table is the last feasible table
    if p.table is not None:
        p.entries, p.diagnostics, p.confidences = run_round(p.table, p.eval_split)
    p.clock.tick(force=True)
    p.wall_s = time.perf_counter() - t0
    return p


def table_bytes(table):
    buf = io.BytesIO()
    model.save_table(buf, table)
    return buf.getvalue()


def _diagnostic_ok(table, rule, diag):
    """Recompute one rule's gaps with numpy complex arithmetic."""
    rel = table.rel_re + 1j * table.rel_im
    hb = np.prod(rel[list(rule.body)], axis=0)
    R = table.bound
    ref = hb / R**rule.length - rel[rule.head] / R
    return (
        np.allclose(diag.delta_re, ref.real, rtol=0.0, atol=1e-12)
        and np.allclose(diag.delta_im, ref.imag, rtol=0.0, atol=1e-12)
    )


def _confidence_ok(rule, value):
    if value is KeyError:
        return False
    if rule.confidence == 1.0:
        # Only the planted rules have confidence 1 in the rule file, and the
        # generator makes every one of their body groundings hold.
        return value == 1.0
    return value is None or 0.0 <= value <= 1.0


def check(p, seed):
    """Correctness gate for one pass.

    Returns ``(attempted, failed, problems)``: an operation is a training
    step, a ranked (triple, side) query or a rule (once through diagnostics,
    once through grounded confidence). ``problems`` lists what broke.
    """
    num_queries = 2 * len(p.eval_split)
    num_rules = len(p.rules)
    attempted = p.planned_steps + num_queries + 2 * num_rules
    failed = p.planned_steps - len(p.step_s)
    problems = []
    if failed:
        problems.append(f"training diverged after {len(p.step_s)} of {p.planned_steps} steps")
    if p.table is None:
        return attempted, failed + num_queries + 2 * num_rules, problems
    if not model.is_feasible(p.table):
        problems.append("final table is infeasible")

    n = p.kg.num_entities
    entries = p.entries
    failed += sum(1 for e in entries if not 1.0 <= e.rank <= n)
    failed += num_queries - len(entries)
    rng = np.random.default_rng([seed, 3])
    for i in rng.choice(len(entries), min(ORACLE_SAMPLE, len(entries)), replace=False):
        e = entries[i]
        expected = brute_force_filtered_rank(p.table, p.kg, e.triple, e.side)
        if e.rank != expected:
            problems.append(f"rank of {tuple(e.triple)} ({e.side}) is {e.rank}, oracle {expected}")

    failed += num_rules - len(p.diagnostics)
    failed += sum(
        1 for rule, d in zip(p.rules, p.diagnostics) if not _diagnostic_ok(p.table, rule, d)
    )
    failed += sum(1 for rule, c in zip(p.rules, p.confidences) if not _confidence_ok(rule, c))
    return attempted, failed, problems


def step_positives(num_train, batch_size, steps):
    """Positive triples in each of ``steps`` training steps."""
    full, rest = divmod(num_train, batch_size)
    return np.resize([batch_size] * full + [rest] * (rest > 0), steps)


def nominal(p, phase):
    """Per-unit times of ``phase``'s samples scaled to the nominal machine
    speed, and the fitted ``alpha`` (see ``calibrate``)."""
    if phase == "train":
        # The first step also times train()'s own set-up.
        return p.clock.nominal(p.step_t0[1:], p.step_s[1:])
    starts, seconds, units = np.array(p.samples[phase], dtype=float).T
    return p.clock.nominal(starts, seconds, units)


def end_to_end_metrics(p):
    """The metrics a user sees, from an untraced repeated pass. Every time is
    a median over the whole run, scaled to the nominal machine speed."""
    steps, _ = nominal(p, "train")
    positives = step_positives(len(p.kg.train), p.batch_size, len(p.step_s))[1:]
    return {
        "setup_s": (float(np.median(nominal(p, "setup")[0])), "s"),
        "train_triples_per_s": (float(positives.sum() / steps.sum()), "triples/s"),
        "train_step_ms_p50": (float(np.median(steps)) * 1e3, "ms"),
        "eval_queries_per_s": (1.0 / float(np.median(nominal(p, "eval")[0])), "queries/s"),
        "diagnostics_rules_per_s": (
            1.0 / float(np.median(nominal(p, "diagnostics")[0])), "rules/s"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_medians(p):
    """Unscaled median seconds per unit of every phase, with the fitted alpha."""
    out = {"train": (float(np.median(p.step_s[1:])), nominal(p, "train")[1])}
    for phase, samples in p.samples.items():
        seconds, units = np.array(samples, dtype=float)[:, 1:].T
        out[phase] = (float(np.median(seconds / units)), nominal(p, phase)[1])
    return out


def step_ms_p90(p, steps=None):
    return float(np.percentile(p.step_s[1:] if steps is None else steps, 90)) * 1e3


def ungated_metrics(p):
    """Printed beside the end-to-end metrics but given no bound: across runs
    on a shared VM the p90 step and the confidence rate spread wider than any
    allowed bound, and the test MRR varies with the seed."""
    return {
        "train_step_ms_p90": (step_ms_p90(p, nominal(p, "train")[0]), "ms"),
        "confidence_rules_per_s": (
            1.0 / float(np.median(nominal(p, "confidence")[0])), "rules/s"
        ),
        "test_mrr": (p.mrr, "mrr"),
    }


def layer_metrics(tracer, traced, untraced, facts):
    """Per-layer metrics from a traced single pass; ``untraced`` is the same
    pass run without wrappers, for the tracing overhead, and ``facts`` the
    number of distinct input triples. A span never entered counts as 0 s."""
    spans = tracer.summary()

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    steps = len(traced.step_s)
    queries = len(traced.entries)
    rules = len(traced.rules)
    rows = tracer.counts.get("adagrad_rows", 0)
    projected = tracer.counts.get("projected_rows", 0)
    per_step = {
        f"training.{name}.ms_per_step": (own(f"training.{name}") * 1e3 / steps, "ms/step")
        for name in (
            "sample_negatives_batch",
            "logistic_loss",
            "rule_penalty",
            "n3_regularization",
            "merge_row_grads",
            "adagrad_step",
        )
    }
    return {
        "kg.load_triples.s": (total("kg.load_triples"), "s"),
        "kg.build_graph.s": (total("kg.build_graph"), "s"),
        "kg.filter_facts": (facts, "count"),
        "rules.parse_rules.s": (total("rules.parse_rules"), "s"),
        "rules.ground_confidence.ms_per_rule": (
            total("rules.ground_confidence") * 1e3 / rules, "ms/rule"
        ),
        **per_step,
        "training.step_other.ms_per_step": (own("training.train") * 1e3 / steps, "ms/step"),
        "training.steps": (steps, "count"),
        "training.adagrad_step.rows_per_step": (rows / steps, "rows/step"),
        "model.project.ms_per_step": (own("model.project") * 1e3 / steps, "ms/step"),
        "model.project.useful_row_frac": (rows / projected if projected else 0.0, "ratio"),
        "evaluation.score.us_per_query": (own("evaluation.score") * 1e6 / queries, "us/query"),
        "evaluation.filtered_rank.us_per_query": (
            own("evaluation.filtered_rank") * 1e6 / queries, "us/query"
        ),
        "evaluation.evaluate.other.us_per_query": (
            own("evaluation.evaluate") * 1e6 / queries, "us/query"
        ),
        "evaluation.relation_rule_diagnostics.us_per_rule": (
            total("evaluation.relation_rule_diagnostics") * 1e6 / rules, "us/rule"
        ),
        "training.step_ms_p90": (step_ms_p90(traced), "ms"),
        "test_mrr": (traced.mrr, "mrr"),
        "trace.overhead_frac": (traced.wall_s / untraced.wall_s - 1.0, "ratio"),
    }

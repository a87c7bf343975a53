"""Desk-scale synthetic experiments: planted-rule graphs and A/B training runs.

The generator plants hierarchy and composition rules into a random graph:
base relations get random edges, each hierarchy head mirrors one base
relation, and each composition head is the two-hop join of a pair of base
relations. A fraction of the rule-implied facts is held out for validation
and test, so the only way to rank those facts highly is to pick up the
relational regularities -- either from data alone (baseline) or with the
rule penalty switched on.
"""

import json
import os
from dataclasses import asdict, replace

import numpy as np

from .evaluation import evaluate, mean_hinge_violation, relation_rule_diagnostics, write_metrics
from .fewshot import FewShotSpec, make_fewshot_split
from .kg import build_graph
from .model import replacing
from .rules import HornRule
from .training import TrainConfig, save_checkpoint, train, write_training_log

__all__ = [
    "make_planted_kg",
    "PLANTED_COMPOSITIONS",
    "run_planted_comparison",
    "run_zero_shot_comparison",
]

# (body_1, body_2) -> head wiring over the four base relations
PLANTED_COMPOSITIONS = ((0, 1), (1, 2), (2, 3), (3, 0))


def _sample_block_pairs(rng, blocks, src, dst, count, taken=()):
    """``count`` distinct pairs from blocks[src] x blocks[dst], none of them
    in ``taken``. A ValueError if the blocks hold fewer free pairs than
    that, where drawing would never end."""
    pairs = []
    seen = set(taken)
    free = len(blocks[src]) * len(blocks[dst])
    free -= sum(1 for h, t in seen if h in blocks[src] and t in blocks[dst])
    if count > free:
        raise ValueError(
            f"blocks {src} x {dst} hold {free} free entity pairs, "
            f"too few for the {count} asked"
        )
    while len(pairs) < count:
        need = count - len(pairs)
        heads = rng.integers(0, len(blocks[src]), size=2 * need)
        tails = rng.integers(0, len(blocks[dst]), size=2 * need)
        for h, t in zip(heads, tails):
            key = (blocks[src][int(h)], blocks[dst][int(t)])
            if key not in seen:
                seen.add(key)
                pairs.append(key)
                if len(pairs) == count:
                    break
    return pairs


def make_planted_kg(
    num_entities=200,
    edges_per_relation=200,
    noise_fraction=0.75,
    seed=0,
    valid_fraction=0.5,
    test_fraction=0.2,
    style="uniform",
):
    """Synthetic graph with four hierarchy and four composition rules (one
    per entry of ``PLANTED_COMPOSITIONS``) planted on top of four random base
    relations.

    Two geometries: ``uniform`` samples base edges i.i.d. over all entity
    pairs; ``bipartite`` partitions the entities into four blocks and
    routes base relation i from block i to block i+1 (cyclically), which
    keeps the entity neighborhoods of different relations disjoint -- the
    cold-start setting where an untrained relation really does score at
    chance.

    Base facts always train; each rule-implied fact lands in test with
    probability ``test_fraction``, in valid with ``valid_fraction``, else in
    train. Each rule-head relation additionally gets ``noise_fraction`` times
    as many train-only facts outside the rule image: real relations are never
    exactly their rule image, and without the extra facts the baseline
    recovers most of the head/body coupling implicitly through shared entity
    embeddings. Rule confidences stay 1.0 (noise adds head facts, so every
    body grounding still has its head).

    Returns ``(kg, rules)``.
    """
    num_base = len(PLANTED_COMPOSITIONS)
    rng = np.random.default_rng(seed)
    entity_ids = {f"e{i}": i for i in range(num_entities)}
    names = (
        [f"base_{i}" for i in range(num_base)]
        + [f"broader_{i}" for i in range(num_base)]
        + [f"joined_{i}" for i in range(num_base)]
    )
    relation_ids = {name: i for i, name in enumerate(names)}

    if style == "uniform":
        blocks = [range(num_entities)] * num_base  # every relation spans all entities
    elif style == "bipartite":
        block_size = num_entities // num_base
        blocks = [range(b * block_size, (b + 1) * block_size) for b in range(num_base)]
    else:
        raise ValueError(f"unknown style {style!r}")
    base_pairs = [
        _sample_block_pairs(rng, blocks, i, (i + 1) % num_base, edges_per_relation)
        for i in range(num_base)
    ]

    rules = []
    implied = {}  # relation id -> list of (h, t)
    for i in range(num_base):
        head = num_base + i
        rules.append(HornRule(body=(i,), head=head, confidence=1.0))
        implied[head] = list(base_pairs[i])
    for j, (x, y) in enumerate(PLANTED_COMPOSITIONS):
        head = 2 * num_base + j
        rules.append(HornRule(body=(x, y), head=head, confidence=1.0))
        adjacency = {}
        for h, t in base_pairs[y]:
            adjacency.setdefault(h, []).append(t)
        seen = set()
        joined = []
        for a, b in base_pairs[x]:
            for c in adjacency.get(b, ()):
                if (a, c) not in seen:
                    seen.add((a, c))
                    joined.append((a, c))
        implied[head] = joined

    train_t, valid_t, test_t = [], [], []
    for i in range(num_base):
        train_t.extend((h, i, t) for h, t in base_pairs[i])
    for head in sorted(implied):
        facts = implied[head]
        perm = rng.permutation(len(facts))
        n_test = int(round(test_fraction * len(facts)))
        n_valid = int(round(valid_fraction * len(facts)))
        for pos, idx in enumerate(perm):
            h, t = facts[idx]
            triple = (h, head, t)
            if pos < n_test:
                test_t.append(triple)
            elif pos < n_test + n_valid:
                valid_t.append(triple)
            else:
                train_t.append(triple)
        # keep noise inside the relation's block pair
        src = (head - num_base) % num_base if head < 2 * num_base else head - 2 * num_base
        hop = 1 if head < 2 * num_base else 2
        n_noise = int(round(noise_fraction * len(facts)))
        noise = _sample_block_pairs(rng, blocks, src, (src + hop) % num_base, n_noise, facts)
        train_t.extend((h, head, t) for h, t in noise)

    kg = build_graph(train_t, valid_t, test_t, (entity_ids, relation_ids))
    return kg, rules


def default_experiment_config(seed):
    return TrainConfig(
        learning_rate=0.2,
        batch_size=64,
        epochs=100,
        validate_every=20,
        mu=0.0,
        eta=0.02,
        negatives_per_positive=1,
        bound=1.0,
        dim=64,
        seed=seed,
    )


def _run_one(out_dir, name, kg, rules, config, eval_split):
    table, records, state = train(kg, rules, config)
    save_checkpoint(os.path.join(out_dir, f"checkpoint_{name}.bin"), table, state)
    write_training_log(
        os.path.join(out_dir, f"training_log_{name}.jsonl"), records, asdict(config)
    )
    report = evaluate(table, kg, eval_split)
    write_metrics(
        os.path.join(out_dir, f"metrics_{name}.txt"), report, extra=asdict(config)
    )
    hinge = mean_hinge_violation(relation_rule_diagnostics(table, rules))
    valid_mrr = None
    for rec in records:
        if rec.valid_mrr is not None:
            valid_mrr = rec.valid_mrr
    return {
        "name": name,
        "mu": config.mu,
        "mrr": report.mrr,
        "hits": report.hits_at,
        "valid_mrr": valid_mrr,
        "mean_hinge_violation": hinge,
    }


def run_planted_comparison(out_dir, seed=0, mus=(0.1, 1.0, 10.0)):
    """Train the mu=0 baseline and one injected run per mu on a planted-rule
    graph (identical seeds), evaluate on the held-out rule-implied test set,
    and select the injected run by validation MRR. Writes per-run checkpoints,
    logs, and metrics plus a summary.json; returns the summary dict."""
    os.makedirs(out_dir, exist_ok=True)
    kg, rules = make_planted_kg(seed=seed)
    config = default_experiment_config(seed)

    baseline = _run_one(out_dir, "baseline", kg, rules, config, kg.test)
    injected_runs = [
        _run_one(out_dir, f"injected_mu{mu:g}", kg, rules, replace(config, mu=mu), kg.test)
        for mu in mus
    ]
    best = max(injected_runs, key=lambda run: run["valid_mrr"])

    summary = {
        "seed": seed,
        "baseline": baseline,
        "injected": injected_runs,
        "selected": best,
        "mrr_gain": best["mrr"] - baseline["mrr"],
    }
    with replacing(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return summary


def run_zero_shot_comparison(out_dir, seed=1, mu=1.0, shots=0):
    """Hold out two task relations (drawn among planted rule heads) at the given
    shot count, then train baseline vs injected with identical seeds and
    evaluate on the held-out task triples.

    Uses the bipartite graph geometry so that the untrained baseline really
    scores near chance on the held-out relations, and no extra head-relation
    facts (the held-out task triples are exactly the rule-implied ones)."""
    os.makedirs(out_dir, exist_ok=True)
    full, rules = make_planted_kg(
        seed=seed,
        valid_fraction=0.05,
        test_fraction=0.0,
        noise_fraction=0.0,
        style="bipartite",
    )
    # Task relations are drawn among the hierarchy heads: every candidate is
    # the head of an injected rule, and a single body relation carries its
    # full fact set, which is what a cold-start relation can inherit.
    heads = tuple(rule.head for rule in rules if rule.length == 1)
    spec = FewShotSpec(num_task_relations=2, shots=shots, seed=seed, candidates=heads)
    kg, task, _supports = make_fewshot_split(full, spec)

    config = default_experiment_config(seed)
    baseline = _run_one(out_dir, "baseline", kg, rules, config, kg.test)
    injected = _run_one(out_dir, "injected", kg, rules, replace(config, mu=mu), kg.test)

    summary = {
        "seed": seed,
        "shots": shots,
        "task_relations": task,
        "baseline": baseline,
        "injected": injected,
        "mrr_ratio": (injected["mrr"] / baseline["mrr"]) if baseline["mrr"] > 0 else float("inf"),
    }
    with replacing(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return summary

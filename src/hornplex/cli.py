"""Command-line interface: train, eval, rules, fewshot, verify, diagnostics.

Every command takes ``--config`` (INI run file) plus ``--seed`` and
``--output-dir``, which, like ``eval --split`` and ``verify --trials``,
override the config keys ``config.FLAGS`` names. Every command writes its
artifacts with the resolved configuration embedded. All commands are
deterministic under fixed config and seed.
"""

import argparse
import json
import math
import os
import sys

from . import evaluation, fewshot, model, rules as rules_mod, training, verify
from .config import FLAGS, load_run_config
from .kg import check_dictionary, load_graph, write_dictionary

__all__ = ["main", "entry_point"]


class CliError(Exception):
    pass


def _load_config(args, need_config=True):
    if args.config is None and need_config:
        raise CliError("a --config file is required for this command")
    return load_run_config(args.config, _overrides(args))


def _overrides(args):
    """The text of each ``FLAGS`` flag given on the command line."""
    return {flag: getattr(args, flag) for flag in FLAGS if getattr(args, flag, None) is not None}


def _load_kg(cfg):
    if cfg.train_path is None:
        raise CliError("config is missing [paths] train")
    for label, p in (("train", cfg.train_path), ("valid", cfg.valid_path), ("test", cfg.test_path)):
        if p is not None and not os.path.exists(p):
            raise CliError(f"{label} triple file not found: {p}")
    return load_graph(cfg.train_path, cfg.valid_path, cfg.test_path)


def _split(cfg, kg, name):
    """The triples of split ``name``; a CliError naming its file, or the
    ``[paths]`` key the config lacks, if it holds none."""
    split = getattr(kg, name)
    if not len(split):
        path = getattr(cfg, f"{name}_path")
        if path is None:
            raise CliError(f"config sets no [paths] {name}, so the {name} split is empty")
        raise CliError(f"{name} triple file {path} holds no triples")
    return split


def _load_rules(cfg, kg):
    if cfg.rules_path is None:
        raise CliError("config sets no [paths] rules file")
    if not os.path.exists(cfg.rules_path):
        raise CliError(f"rules file not found: {cfg.rules_path}")
    return rules_mod.parse_rules(cfg.rules_path, kg.relation_ids)


def _load_table(path, kg):
    """The embedding table of a checkpoint, which must match the graph's
    entity and relation counts, and the names of the ``entities.dict`` and
    ``relations.dict`` beside it, where they exist."""
    table = model.load_table(path)
    found = (table.num_entities, table.num_relations)
    expected = (kg.num_entities, kg.num_relations)
    if found != expected:
        raise CliError(
            f"checkpoint {path} holds {found[0]} entities and {found[1]} relations, "
            f"but the graph has {expected[0]} entities and {expected[1]} relations"
        )
    folder = os.path.dirname(os.path.abspath(path))
    for name, names in (("entities.dict", kg.entity_names), ("relations.dict", kg.relation_names)):
        if os.path.exists(os.path.join(folder, name)):
            check_dictionary(os.path.join(folder, name), names)
    return table


def _write_resolved(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with model.replacing(os.path.join(out_dir, "resolved_config.json"), encoding="utf-8") as fh:
        json.dump(cfg.echo(), fh, indent=2, sort_keys=True)


def cmd_train(args):
    cfg = _load_config(args)
    kg = _load_kg(cfg)
    _split(cfg, kg, "train")
    # mu = 0 packs no rules, so no rules file is read
    rules = _load_rules(cfg, kg) if cfg.train.mu > 0 else []
    out = cfg.output_dir
    _write_resolved(cfg, out)

    table, records, state = training.train(kg, rules, cfg.train)
    training.save_checkpoint(os.path.join(out, "checkpoint.bin"), table, state)
    training.write_training_log(
        os.path.join(out, "training_log.jsonl"), records, cfg.echo()
    )
    write_dictionary(os.path.join(out, "entities.dict"), kg.entity_names)
    write_dictionary(os.path.join(out, "relations.dict"), kg.relation_names)
    if len(kg.valid):
        report = evaluation.evaluate(
            table, kg, kg.valid, side=cfg.eval_side, hits=cfg.eval_hits
        )
        evaluation.write_metrics(
            os.path.join(out, "metrics_valid.txt"), report, extra=cfg.echo()
        )
        print(f"validation mrr={report.mrr:.6f} " + " ".join(
            f"hits@{k}={v:.6f}" for k, v in sorted(report.hits_at.items())
        ))
    print(f"checkpoint written to {os.path.join(out, 'checkpoint.bin')}")
    return 0


def cmd_eval(args):
    cfg = _load_config(args)
    kg = _load_kg(cfg)
    split = _split(cfg, kg, cfg.eval_split)
    table = _load_table(args.checkpoint, kg)
    report = evaluation.evaluate(table, kg, split, side=cfg.eval_side, hits=cfg.eval_hits)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    evaluation.write_metrics(os.path.join(out, "metrics.txt"), report, extra=cfg.echo())
    print(f"mrr={report.mrr:.6f} " + " ".join(
        f"hits@{k}={v:.6f}" for k, v in sorted(report.hits_at.items())
    ) + f" count={report.count}")
    return 0


def cmd_rules_filter(args):
    if not math.isfinite(args.min_confidence):
        raise CliError(f"--min-confidence {args.min_confidence}: expected a finite number")
    if args.max_length < 1:
        raise CliError(f"--max-length {args.max_length}: expected an integer of at least 1")
    cfg = _load_config(args)
    kg = _load_kg(cfg)
    parsed = _load_rules(cfg, kg)
    kept = rules_mod.filter_rules(
        parsed, min_confidence=args.min_confidence, max_length=args.max_length,
        strict=args.strict,
    )
    os.makedirs(cfg.output_dir, exist_ok=True)
    out_path = args.output or os.path.join(cfg.output_dir, "rules_filtered.tsv")
    rules_mod.write_rules(out_path, kept, kg.relation_names)
    print(f"kept {len(kept)} of {len(parsed)} rules -> {out_path}")
    return 0


def cmd_rules_confidence(args):
    cfg = _load_config(args)
    kg = _load_kg(cfg)
    parsed = _load_rules(cfg, kg)
    names = kg.relation_names
    os.makedirs(cfg.output_dir, exist_ok=True)
    out_path = args.output or os.path.join(cfg.output_dir, "rule_confidence.tsv")
    with model.replacing(out_path, encoding="utf-8") as fh:
        fh.write("kind\thead\tbody\tstated\tground\n")
        for rule in parsed:
            ground = rules_mod.ground_confidence(kg, rule)
            body = ",".join(names[r] for r in rule.body)
            ground_txt = "none" if ground is None else f"{ground:.6f}"
            line = f"{rule.kind()}\t{names[rule.head]}\t{body}\t{rule.confidence:g}\t{ground_txt}"
            fh.write(line + "\n")
            print(line)
    return 0


def cmd_fewshot(args):
    cfg = _load_config(args)
    kg = _load_kg(cfg)
    candidates = None
    if cfg.fewshot_candidates is not None:
        try:
            candidates = tuple(kg.relation_ids[name] for name in cfg.fewshot_candidates)
        except KeyError as err:
            raise CliError(
                f"{args.config}: [fewshot] candidates: {err.args[0]!r} is not a relation of the graph"
            ) from None
    os.makedirs(cfg.output_dir, exist_ok=True)
    _write_resolved(cfg, cfg.output_dir)
    for shots in cfg.fewshot_shots:
        spec = fewshot.FewShotSpec(
            num_task_relations=cfg.fewshot_num_task_relations,
            shots=shots,
            seed=cfg.fewshot_seed,
            candidates=candidates,
        )
        graph, task, supports = fewshot.make_fewshot_split(kg, spec)
        out_dir = os.path.join(cfg.output_dir, f"shots_{shots}")
        fewshot.write_fewshot_split(out_dir, graph, task, supports, spec)
        print(f"shots={shots}: task relations {[kg.relation_names[r] for r in task]} -> {out_dir}")
    return 0


def cmd_verify(args):
    cfg = _load_config(args, need_config=False)
    trials, seed = cfg.verify_trials, cfg.verify_seed
    reports, controls, passed = verify.default_suite(
        trials=trials, seed=seed, dims=cfg.verify_dims, ks=cfg.verify_ks
    )
    informational = [
        verify.counterexample_search_unrestricted(k, cfg.verify_dims[0], trials=trials, seed=seed)
        for k in cfg.verify_ks
    ]
    for report in reports + controls + informational:
        print(verify.format_report(report))
    os.makedirs(cfg.output_dir, exist_ok=True)
    verify.write_reports(
        os.path.join(cfg.output_dir, "theorem_reports.txt"),
        reports + controls + informational,
        extra=cfg.echo(),
    )
    print("suite passed" if passed else "suite FAILED")
    return 0 if passed else 1


def cmd_diagnostics(args):
    cfg = _load_config(args)
    kg = _load_kg(cfg)
    parsed = _load_rules(cfg, kg)
    table = _load_table(args.checkpoint, kg)
    diags = evaluation.relation_rule_diagnostics(table, parsed)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    evaluation.write_diagnostics_csv(
        os.path.join(out, "diagnostics.csv"), diags, extra=cfg.echo()
    )
    evaluation.write_diagnostics_summary(
        os.path.join(out, "diagnostics_summary.csv"), diags, extra=cfg.echo()
    )
    model.export_table_csv(
        table, os.path.join(out, "entities.csv"), os.path.join(out, "relations.csv")
    )
    for diag in diags:
        print(
            f"rule {diag.rule_id}: max_delta_re={diag.max_delta_re:.6f} "
            f"mean_sq_delta_im={diag.mean_sq_delta_im:.6f} hinge={diag.hinge_sum:.6f}"
        )
    print(f"mean hinge violation: {evaluation.mean_hinge_violation(diags):.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hornplex",
        description="Complex-embedding KG training with Horn-rule injection.",
    )
    parser.add_argument("--config", help="INI run configuration file")
    parser.add_argument("--seed", help="override [train], [fewshot] and [verify] seed")
    parser.add_argument("--output-dir", help="override [paths] output_dir")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="train embeddings per the config").set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="filtered ranking evaluation of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", help="override [eval] split")
    p_eval.set_defaults(fn=cmd_eval)

    p_rules = sub.add_parser("rules", help="rule utilities")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_filter = rules_sub.add_parser("filter", help="filter rules by confidence and length")
    p_filter.add_argument("--min-confidence", type=float, default=0.5)
    p_filter.add_argument("--max-length", type=int, default=2)
    p_filter.add_argument("--strict", action="store_true",
                          help="use a strict > confidence threshold instead of >=")
    p_filter.add_argument("--output")
    p_filter.set_defaults(fn=cmd_rules_filter)
    p_conf = rules_sub.add_parser("confidence", help="exact grounded confidence of each rule")
    p_conf.add_argument("--output")
    p_conf.set_defaults(fn=cmd_rules_confidence)

    sub.add_parser("fewshot", help="construct zero/few-shot splits").set_defaults(fn=cmd_fewshot)

    p_verify = sub.add_parser("verify", help="run the theorem verification suite")
    p_verify.add_argument("--trials", help="override [verify] trials")
    p_verify.set_defaults(fn=cmd_verify)

    p_diag = sub.add_parser("diagnostics", help="rule-constraint gaps of a checkpoint")
    p_diag.add_argument("--checkpoint", required=True)
    p_diag.set_defaults(fn=cmd_diagnostics)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, OSError, ValueError, KeyError, training.TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

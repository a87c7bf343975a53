"""Run configuration files: flat INI with sections, CLI flags override values."""

import configparser
from dataclasses import asdict, dataclass, field

from .kg import read_lines
from .training import TrainConfig

__all__ = ["RunConfig", "load_run_config"]


@dataclass
class RunConfig:
    train_path: str | None = None
    valid_path: str | None = None
    test_path: str | None = None
    rules_path: str | None = None
    output_dir: str = "out"
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_side: str = "both"
    eval_hits: tuple = (1, 3, 10)
    eval_split: str = "test"
    fewshot_num_task_relations: int = 2
    fewshot_shots: tuple = (0,)
    fewshot_seed: int = 0
    fewshot_candidates: tuple | None = None  # relation surface names
    verify_trials: int = 10000
    verify_seed: int = 0
    verify_dims: tuple = (2, 8, 32)
    verify_ks: tuple = (1, 2, 3)

    def echo(self):
        """Flat dict embedded into output artifacts for provenance."""
        flat = asdict(self)
        train = flat.pop("train")
        flat.update({f"train.{k}": v for k, v in train.items()})
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in flat.items()}


def _ints(text):
    return tuple(int(x) for x in text.replace(",", " ").split())


def load_run_config(path=None, overrides=None):
    """Read an INI run configuration; ``overrides`` maps flat keys (e.g.
    ``seed``, ``output_dir``) from command-line flags. A malformed file is a
    ValueError naming the file and the line, a malformed value one naming the
    file, the section and the key."""
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            parser.read_file(read_lines(path, ValueError), source=str(path))
        except configparser.Error as err:
            raise ValueError(str(err)) from None

    def get(section, key, cast):
        text = parser[section][key]
        try:
            return cast(text)
        except ValueError as err:
            raise ValueError(f"{path}: [{section}] {key} = {text!r}: {err}") from None

    paths = parser["paths"] if parser.has_section("paths") else {}
    cfg = RunConfig(
        train_path=paths.get("train"),
        valid_path=paths.get("valid"),
        test_path=paths.get("test"),
        rules_path=paths.get("rules"),
        output_dir=paths.get("output_dir", "out"),
    )

    if parser.has_section("train"):
        section = parser["train"]
        kwargs = {}
        for key, cast in (
            ("learning_rate", float),
            ("batch_size", int),
            ("epochs", int),
            ("validate_every", int),
            ("mu", float),
            ("eta", float),
            ("negatives_per_positive", int),
            ("bound", float),
            ("dim", int),
            ("seed", int),
        ):
            if key in section:
                kwargs[key] = get("train", key, cast)
        cfg.train = TrainConfig(**kwargs)

    if parser.has_section("eval"):
        section = parser["eval"]
        cfg.eval_side = section.get("side", cfg.eval_side)
        if "hits" in section:
            cfg.eval_hits = get("eval", "hits", _ints)
        cfg.eval_split = section.get("split", cfg.eval_split)

    if parser.has_section("fewshot"):
        section = parser["fewshot"]
        if "num_task_relations" in section:
            cfg.fewshot_num_task_relations = get("fewshot", "num_task_relations", int)
        if "shots" in section:
            cfg.fewshot_shots = get("fewshot", "shots", _ints)
        if "seed" in section:
            cfg.fewshot_seed = get("fewshot", "seed", int)
        if "candidates" in section:
            cfg.fewshot_candidates = tuple(
                name.strip() for name in section["candidates"].split(",") if name.strip()
            )

    if parser.has_section("verify"):
        section = parser["verify"]
        if "trials" in section:
            cfg.verify_trials = get("verify", "trials", int)
        if "seed" in section:
            cfg.verify_seed = get("verify", "seed", int)
        if "dims" in section:
            cfg.verify_dims = get("verify", "dims", _ints)
        if "ks" in section:
            cfg.verify_ks = get("verify", "ks", _ints)

    overrides = overrides or {}
    if overrides.get("output_dir") is not None:
        cfg.output_dir = overrides["output_dir"]
    if overrides.get("seed") is not None:
        seed = overrides["seed"]
        from dataclasses import replace

        cfg.train = replace(cfg.train, seed=seed)
        cfg.fewshot_seed = seed
        cfg.verify_seed = seed
    return cfg

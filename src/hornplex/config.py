"""Run configuration files: flat INI with sections, CLI flags override values."""

import configparser
from dataclasses import asdict, dataclass, field, replace

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


def _names(text):
    return tuple(name.strip() for name in text.split(",") if name.strip())


def load_run_config(path=None, overrides=None):
    """Read an INI run configuration; ``overrides`` maps flat keys (e.g.
    ``seed``, ``output_dir``) from command-line flags. A malformed file is a
    ValueError naming the file and the line. A malformed value (one that
    fails its cast or its "%" interpolation) is one naming the file, the
    section and the key, and training values that ``TrainConfig`` rejects
    are one naming the file and the section."""
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            parser.read_file(read_lines(path, ValueError), source=str(path))
        except configparser.Error as err:
            raise ValueError(str(err)) from None

    def get(section, key, cast=str, default=None):
        if not parser.has_option(section, key):
            return default
        try:
            text = parser[section][key]
            return cast(text)
        except (ValueError, configparser.Error) as err:
            raw = parser.get(section, key, raw=True)
            raise ValueError(f"{path}: [{section}] {key} = {raw!r}: {err}") from None

    cfg = RunConfig(
        train_path=get("paths", "train"),
        valid_path=get("paths", "valid"),
        test_path=get("paths", "test"),
        rules_path=get("paths", "rules"),
        output_dir=get("paths", "output_dir", default="out"),
    )

    if parser.has_section("train"):
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
            if parser.has_option("train", key):
                kwargs[key] = get("train", key, cast)
        try:
            cfg.train = TrainConfig(**kwargs)
        except ValueError as err:
            raise ValueError(f"{path}: [train] {err}") from None

    cfg.eval_side = get("eval", "side", default=cfg.eval_side)
    cfg.eval_hits = get("eval", "hits", _ints, cfg.eval_hits)
    cfg.eval_split = get("eval", "split", default=cfg.eval_split)

    cfg.fewshot_num_task_relations = get(
        "fewshot", "num_task_relations", int, cfg.fewshot_num_task_relations
    )
    cfg.fewshot_shots = get("fewshot", "shots", _ints, cfg.fewshot_shots)
    cfg.fewshot_seed = get("fewshot", "seed", int, cfg.fewshot_seed)
    cfg.fewshot_candidates = get("fewshot", "candidates", _names, cfg.fewshot_candidates)

    cfg.verify_trials = get("verify", "trials", int, cfg.verify_trials)
    cfg.verify_seed = get("verify", "seed", int, cfg.verify_seed)
    cfg.verify_dims = get("verify", "dims", _ints, cfg.verify_dims)
    cfg.verify_ks = get("verify", "ks", _ints, cfg.verify_ks)

    overrides = overrides or {}
    if overrides.get("output_dir") is not None:
        cfg.output_dir = overrides["output_dir"]
    if overrides.get("seed") is not None:
        seed = overrides["seed"]
        cfg.train = replace(cfg.train, seed=seed)
        cfg.fewshot_seed = seed
        cfg.verify_seed = seed
    return cfg

"""Run configuration files: flat INI with sections, CLI flags override values."""

import configparser
from dataclasses import asdict, dataclass, field, fields, replace

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


def _at_least(least):
    """A cast to an int of at least ``least``."""

    def cast(text):
        value = int(text)
        if value < least:
            raise ValueError(f"expected an integer of at least {least}")
        return value

    return cast


def _list_of(cast):
    """A cast to a non-empty tuple of ``cast``'s values, separated by commas
    or spaces."""

    def cast_all(text):
        values = tuple(cast(x) for x in text.replace(",", " ").split())
        if not values:
            raise ValueError("expected at least one value")
        return values

    return cast_all


def _names(text):
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _one_of(*choices):
    """A cast that returns its text if it is one of ``choices``."""

    def cast(text):
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text

    return cast


# Every setting a file may hold, as section -> key -> cast. The [train] keys
# are the fields of TrainConfig, cast to their types; any other key is the
# RunConfig field ``_field`` names.
SETTINGS = {
    "paths": {"train": str, "valid": str, "test": str, "rules": str, "output_dir": str},
    "train": {f.name: f.type for f in fields(TrainConfig)},
    "eval": {
        "side": _one_of("both", "head", "tail"),
        "hits": _list_of(_at_least(1)),
        "split": _one_of("train", "valid", "test"),
    },
    "fewshot": {
        "num_task_relations": _at_least(1),
        "shots": _list_of(_at_least(0)),
        "seed": _at_least(0),
        "candidates": _names,
    },
    "verify": {
        "trials": _at_least(1),
        "seed": _at_least(0),
        "dims": _list_of(_at_least(1)),
        "ks": _list_of(_at_least(1)),
    },
}


def _field(section, key):
    """The RunConfig field of a setting outside [train]."""
    if section == "paths":
        return key if key == "output_dir" else f"{key}_path"
    return f"{section}_{key}"


def load_run_config(path=None, overrides=None):
    """Read an INI run configuration; ``overrides`` maps flat keys (e.g.
    ``seed``, ``output_dir``) from command-line flags. A malformed file is a
    ValueError naming the file and the line. A section or key outside
    ``SETTINGS`` is one naming the file and the section or key, and so is a
    malformed value (one that fails its cast, its choices or its "%"
    interpolation); training values that ``TrainConfig`` rejects are one
    naming the file and the section. A negative ``seed`` override is one
    naming ``--seed``."""
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            parser.read_file(read_lines(path, ValueError), source=str(path))
        except configparser.Error as err:
            raise ValueError(str(err)) from None
    if parser.defaults():
        raise ValueError(f"{path}: [{parser.default_section}]: unknown section")

    run, train = {}, {}
    for section in parser.sections():
        casts = SETTINGS.get(section)
        if casts is None:
            raise ValueError(
                f"{path}: [{section}]: unknown section; the sections are {', '.join(SETTINGS)}"
            )
        for key in parser.options(section):
            if key not in casts:
                raise ValueError(
                    f"{path}: [{section}] {key}: unknown key; [{section}] takes {', '.join(casts)}"
                )
            try:
                value = casts[key](parser[section][key])
            except (ValueError, configparser.Error) as err:
                raw = parser.get(section, key, raw=True)
                raise ValueError(f"{path}: [{section}] {key} = {raw!r}: {err}") from None
            if section == "train":
                train[key] = value
            else:
                run[_field(section, key)] = value
    try:
        cfg = RunConfig(train=TrainConfig(**train), **run)
    except ValueError as err:
        raise ValueError(f"{path}: [train] {err}") from None

    overrides = overrides or {}
    if overrides.get("output_dir") is not None:
        cfg.output_dir = overrides["output_dir"]
    if overrides.get("seed") is not None:
        seed = overrides["seed"]
        if seed < 0:
            raise ValueError(f"--seed {seed}: expected an integer of at least 0")
        cfg.train = replace(cfg.train, seed=seed)
        cfg.fewshot_seed = seed
        cfg.verify_seed = seed
    return cfg

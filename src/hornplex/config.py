"""Run configuration files: flat INI with sections, CLI flags override values."""

import configparser
from dataclasses import asdict, dataclass, field, fields

from .kg import read_lines
from .training import TrainConfig

__all__ = ["FLAGS", "RunConfig", "load_run_config"]


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
    """A cast to a non-empty tuple of distinct names separated by commas."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise ValueError("expected at least one name")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{name!r} is listed twice")
    return names


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


# Each command-line flag, as the sections whose key of the same name it sets.
FLAGS = {
    "output_dir": ("paths",),
    "seed": ("train", "fewshot", "verify"),
    "split": ("eval",),
    "trials": ("verify",),
}


def _field(section, key):
    """The RunConfig field of a setting outside [train]."""
    if section == "paths":
        return key if key == "output_dir" else f"{key}_path"
    return f"{section}_{key}"


def load_run_config(path=None, overrides=None):
    """Read an INI run configuration; ``overrides`` maps flags of ``FLAGS``
    to their command-line text, which replaces the file's value of the key in
    each of the flag's sections. A malformed file is a ValueError naming the
    file and the line. A section or key outside ``SETTINGS`` is one naming
    the file and the section or key, and so is a malformed value (one that
    fails its cast, its choices or its "%" interpolation); training values
    that ``TrainConfig`` rejects are one naming the file and the section. A
    flag's text takes its keys' casts, without interpolation, and one that
    fails is a ValueError naming the flag."""
    parser = configparser.ConfigParser()
    if path is not None:
        try:
            parser.read_file(read_lines(path, ValueError), source=str(path))
        except configparser.Error as err:
            raise ValueError(str(err)) from None
    if parser.defaults():
        raise ValueError(f"{path}: [{parser.default_section}]: unknown section")

    values = {}  # (section, key) -> value
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
                values[section, key] = casts[key](parser[section][key])
            except (ValueError, configparser.Error) as err:
                raw = parser.get(section, key, raw=True)
                raise ValueError(f"{path}: [{section}] {key} = {raw!r}: {err}") from None
    for flag, text in (overrides or {}).items():
        for section in FLAGS[flag]:
            try:
                values[section, flag] = SETTINGS[section][flag](text)
            except ValueError as err:
                raise ValueError(f"--{flag.replace('_', '-')} {text}: {err}") from None
    train = {key: value for (section, key), value in values.items() if section == "train"}
    run = {_field(*where): value for where, value in values.items() if where[0] != "train"}
    try:
        return RunConfig(train=TrainConfig(**train), **run)
    except ValueError as err:
        raise ValueError(f"{path}: [train] {err}") from None

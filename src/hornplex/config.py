"""Run configuration files: flat INI with sections, CLI flags override values."""

import configparser
from dataclasses import asdict, dataclass, field, fields

from .kg import read_lines
from .training import TrainConfig

__all__ = ["FLAGS", "RunConfig", "load_run_config"]


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


def _setting(section, key, cast, default):
    """A RunConfig field that holds ``[section] key``, read by ``cast``."""
    return field(default=default, metadata={"section": section, "key": key, "cast": cast})


@dataclass
class RunConfig:
    train_path: str | None = _setting("paths", "train", str, None)
    valid_path: str | None = _setting("paths", "valid", str, None)
    test_path: str | None = _setting("paths", "test", str, None)
    rules_path: str | None = _setting("paths", "rules", str, None)
    output_dir: str = _setting("paths", "output_dir", str, "out")
    train: TrainConfig = field(default_factory=TrainConfig)  # [train]
    eval_side: str = _setting("eval", "side", _one_of("both", "head", "tail"), "both")
    eval_hits: tuple = _setting("eval", "hits", _list_of(_at_least(1)), (1, 3, 10))
    eval_split: str = _setting("eval", "split", _one_of("train", "valid", "test"), "test")
    fewshot_num_task_relations: int = _setting("fewshot", "num_task_relations", _at_least(1), 2)
    fewshot_shots: tuple = _setting("fewshot", "shots", _list_of(_at_least(0)), (0,))
    fewshot_seed: int = _setting("fewshot", "seed", _at_least(0), 0)
    # relation surface names
    fewshot_candidates: tuple | None = _setting("fewshot", "candidates", _names, None)
    verify_trials: int = _setting("verify", "trials", _at_least(1), 10000)
    verify_seed: int = _setting("verify", "seed", _at_least(0), 0)
    verify_dims: tuple = _setting("verify", "dims", _list_of(_at_least(1)), (2, 8, 32))
    verify_ks: tuple = _setting("verify", "ks", _list_of(_at_least(1)), (1, 2, 3))

    def echo(self):
        """Flat dict embedded into output artifacts for provenance."""
        flat = asdict(self)
        train = flat.pop("train")
        flat.update({f"train.{k}": v for k, v in train.items()})
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in flat.items()}


def _declared():
    """Every setting a file may hold, as section -> key -> cast in field
    order, and the RunConfig field of each setting outside [train], as
    (section, key) -> name. The [train] keys are the fields of TrainConfig,
    cast to their types."""
    settings, names = {}, {}
    for f in fields(RunConfig):
        if f.type is TrainConfig:
            settings["train"] = {t.name: t.type for t in fields(TrainConfig)}
            continue
        section, key = f.metadata["section"], f.metadata["key"]
        settings.setdefault(section, {})[key] = f.metadata["cast"]
        names[section, key] = f.name
    return settings, names


SETTINGS, _FIELDS = _declared()

# Each command-line flag, as every section with a key of the flag's name.
FLAGS = {
    flag: tuple(section for section, casts in SETTINGS.items() if flag in casts)
    for flag in ("output_dir", "seed", "split", "trials")
}


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
    run = {_FIELDS[where]: value for where, value in values.items() if where[0] != "train"}
    try:
        return RunConfig(train=TrainConfig(**train), **run)
    except ValueError as err:
        raise ValueError(f"{path}: [train] {err}") from None

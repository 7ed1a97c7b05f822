"""How a config dataclass rejects bad values.

Each config dataclass (data.SyntheticSpec, losses.LossSpec,
federation.FederationConfig, experiments.ExperimentSpec) states its own
rules once, in __post_init__, and raises ConfigError naming every bad field
at once. Library callers, dataclasses.replace() and the config-file parser
therefore all get the same rules.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Bad values in a config dataclass.

    `problems` pairs each field name with what is wrong with it. `value` is
    the object as constructed, so a caller that collects the problems of
    several objects (the config-file parser) can still check the objects
    built on top of it.
    """

    def __init__(self, value, problems: list[tuple[str, str]]):
        super().__init__("; ".join(f"{name}: {why}" for name, why in problems))
        self.value = value
        self.problems = problems


def check(value, rules) -> None:
    """Raise ConfigError for every (field, holds, reason) rule that does not hold."""
    problems = [(name, why) for name, holds, why in rules if not holds]
    if problems:
        raise ConfigError(value, problems)

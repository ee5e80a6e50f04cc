"""Flat `section.key = value` run configuration."""

from __future__ import annotations

import hashlib


class ConfigError(ValueError):
    pass


class Config(dict):
    """Parsed configuration; looking up a missing key raises ConfigError.
    Every key looked up, by [], get or read, is recorded, so that `unread`
    can name the keys that a run never used (a misspelt key, say)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = set()

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)

    def __missing__(self, key):
        raise ConfigError(f"missing config key {key!r}")

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)

    def unread(self) -> list:
        """The keys never looked up, in file order; `_hash` is not one."""
        return [key for key in self if key not in self.asked and key != "_hash"]

    def read(self, key, convert, default=None):
        """`convert` of the numeric value at `key`, or of `default` when it
        is given and the key is absent; a value `convert` rejects raises
        ConfigError naming the key, the raw value and what was needed: a
        number, or the text of a ConfigError that `convert` raised."""
        raw = self[key] if default is None else self.get(key, default)
        try:
            return convert(raw)
        except (TypeError, ValueError) as exc:
            need = exc if isinstance(exc, ConfigError) else "a number"
            raise ConfigError(
                f"config key {key!r}: cannot read {raw!r} as {need}") from None


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_scalar(p) for p in raw.split(",") if p.strip()]
    return _parse_scalar(raw)


def _parse_scalar(raw: str):
    raw = raw.strip()
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def load_config(path: str) -> Config:
    cfg = Config()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key must be 'section.key'")
        cfg[key] = _parse_value(raw)
    cfg["_hash"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return cfg


def as_int(value) -> int:
    """An integral number as an int: 10 or 10.0 is read, 10.9 is rejected
    rather than truncated."""
    if isinstance(value, int):
        return value
    v = float(value)
    if not v.is_integer():
        raise ConfigError("an integer")
    return int(v)


def as_floats(value) -> list:
    if isinstance(value, (int, float, str)):
        return [float(value)]
    return [float(v) for v in value]


def as_intervals(value) -> list:
    """The numbers of `value` as consecutive intervals (a, b) with a <= b;
    an odd count or a reversed pair is rejected."""
    v = as_floats(value)
    if len(v) % 2:
        raise ConfigError("pairs of numbers")
    pairs = list(zip(v[::2], v[1::2]))
    for a, b in pairs:
        if a > b:
            raise ConfigError(f"intervals (a, b) with a <= b, not ({a!r}, {b!r})")
    return pairs


def as_pair(value) -> tuple:
    """The two numbers of a two-value key such as an interval."""
    v = as_floats(value)
    if len(v) != 2:
        raise ConfigError("two numbers")
    return tuple(v)

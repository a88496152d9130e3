"""The key=value format of every --config file: one pair per line, ``#`` comments."""

from pathlib import Path

from .errors import ConfigError
from .ingest import text_lines

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_kv_file(path: str | Path, kinds: dict[str, type]) -> dict[str, object]:
    """Parse ``path``, converting each value to the type ``kinds`` gives its key.

    ``-`` in a key reads as ``_``.  A line that is not key=value, a key not in
    ``kinds``, a key set twice or a value its type rejects raises ConfigError
    naming the line; a line that is not UTF-8 raises MalformedRecordError.
    """
    values: dict[str, object] = {}
    for lineno, line in text_lines(Path(path).read_bytes()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{Path(path).name}, line {lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected key=value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in kinds:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: config key {key!r} is set twice")
        kind = kinds[key]
        try:
            values[key] = _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: bad {kind.__name__} value for {key}: {raw!r}") from None
    return values

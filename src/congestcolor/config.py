"""Run configuration, serialized verbatim into every result file."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import get_args, get_type_hints


@dataclass
class SimConfig:
    mode: str = "practical"          # "theory" | "practical"
    b_factor: int = 4                # bandwidth = b_factor * ceil(log2 n) bits
    bandwidth_bits: int | None = None  # explicit override
    k4: int = 5                      # plain trials per middle dense layer
    c_layer: float = 1.0             # layer-size floor constant
    c_small: float = 1.0             # small-degree branch threshold constant
    trace: bool = False

    def validate(self):
        if self.mode not in ("theory", "practical"):
            raise ValueError(f"unknown mode {self.mode}")
        for name, low in (("b_factor", 1), ("bandwidth_bits", 1), ("k4", 0), ("c_small", 0)):
            value = getattr(self, name)
            if value is not None and not value >= low:  # NaN fails too
                raise ValueError(f"{name} must be >= {low}")
        if not 0 < self.c_layer < float("inf"):
            raise ValueError("c_layer must be finite and > 0")
        return self

    def to_text(self) -> str:
        return "".join(
            f"{k}={v}\n" for k, v in sorted(asdict(self).items()) if v is not None
        )

    @classmethod
    def from_text(cls, text: str) -> "SimConfig":
        """Parse `key=value` lines; each value takes its field's annotated type."""
        types = {}
        for name, hint in get_type_hints(cls).items():
            # `int | None` parses as int (None is never serialized)
            types[name] = next(t for t in (*get_args(hint), hint) if t is not type(None))
        kwargs = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in types:
                raise ValueError(f"unknown config key {key}")
            value = value.strip()
            if types[key] is bool:
                kwargs[key] = value.lower() in ("1", "true", "yes")
            else:
                kwargs[key] = types[key](value)
        return cls(**kwargs).validate()

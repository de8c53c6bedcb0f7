"""Run configuration, serialized verbatim into every result file."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import get_args, get_type_hints


@dataclass
class SimConfig:
    mode: str = "practical"          # "theory" | "practical"
    b_factor: int = 4                # bandwidth = b_factor * ceil(log2 n) bits
    bandwidth_bits: int | None = None  # explicit override
    load_cap: int = 4                # routing load cap, multiples of Delta
    # loop multipliers: k1/k2 sparse phase, k3 R0 shrink, k4/k5 dense layer
    # loop, k6 shattering
    k1: int = 5
    k2: int = 4
    k3: int = 4
    k4: int = 5
    k5: int = 4
    k6: int = 4
    c_layer: float = 1.0             # layer-size floor constant
    c_p: float = 2.0                 # sub-palette size constant
    c_small: float = 1.0             # small-degree branch threshold constant
    c_theory: float = 1.0            # theory-mode Delta >= c*log^2 n assertion
    delta_acd: float = 1.0 / 81.0    # acd derives epsilon = 27 * delta_acd
    p_sample: float = 0.05           # slack-generation sampling probability
    # decomposition calibration (practical mode; theory mode pins all three to
    # the literal values 1.0 / 1 / 1.0 so thresholds match the analysis)
    acd_sample_mult: float = 4.0     # sampling prob = min(1, mult/sqrt(Delta))
    acd_gossip_reps: int = 8         # gossip repetitions (counts accumulate)
    acd_margin: float = 0.5          # detection thresholds = margin * expectation
    overlay_round_mult: int = 2      # paired-round cap multiplier
    instance_mult: float = 2.0       # parallel coloring instances: a*log2 n
    n_max_component: int = 20000     # shattered-component size ceiling
    trace: bool = False

    def validate(self):
        if self.mode not in ("theory", "practical"):
            raise ValueError(f"unknown mode {self.mode}")
        if self.b_factor < 1:
            raise ValueError("b_factor must be >= 1")
        if not 0.0 < self.delta_acd < 1.0 / 80.0:
            raise ValueError("delta_acd must be in (0, 1/80)")
        if not 0.0 < self.p_sample < 1.0:
            raise ValueError("p_sample must be in (0,1)")
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

"""Scenario configuration: flat key=value text files with '#' comments.

The format round-trips exactly (parse -> serialize -> parse is the
identity) so figure datasets can embed their full configuration in the
CSV header without ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .correlations import XStateSummary
from .dynamics import TwoQubitState, bell_phi_plus, singlet
from .errors import ConfigError

_PROTOCOLS = ("Q00", "Q10", "Q01", "Q11")
# the named initial states; "custom" assembles one from the rho entries
_NAMED_STATES = {"singlet": singlet, "bell_phi_plus": bell_phi_plus}
_STATES = (*_NAMED_STATES, "custom")
_WINDOWS = ("running", "fixed")
# 100x the largest sweep timed so far (N = 10,000); bounds the train size
_MAX_PULSES = 10 ** 6


@dataclass
class ScenarioConfig:
    s: float = 1.0
    eta: float = 0.5
    omega_c: float = 1.0
    tau_f: float = 10.0
    tau_d: float = 30.0
    n_pulses: int = 10
    pulse_spacing: float | None = None
    protocol: str = "Q11"
    initial_state: str = "singlet"
    # custom X-state entries, used only when initial_state == "custom"
    rho11: float = 0.0
    rho22: float = 0.5
    rho33: float = 0.5
    rho44: float = 0.0
    re_rho14: float = 0.0
    im_rho14: float = 0.0
    re_rho23: float = -0.5
    im_rho23: float = 0.0
    points_per_interval: int = 40
    min_points: int = 2000
    qsl_window: str = "running"
    n_values: tuple[int, ...] = ()
    out: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}",
                                  field=f.name)
        if self.s <= 0:
            raise ConfigError("Ohmicity s must be positive", field="s")
        if self.eta < 0:
            raise ConfigError("coupling eta must be nonnegative", field="eta")
        if self.omega_c <= 0:
            raise ConfigError("omega_c must be positive", field="omega_c")
        if self.tau_f <= 0:
            raise ConfigError("tau_f must be positive", field="tau_f")
        if self.tau_f > self.tau_d:
            raise ConfigError("tau_f must not exceed tau_d", field="tau_f")
        if self.pulse_spacing is not None:
            if self.pulse_spacing <= 0:
                raise ConfigError("pulse_spacing must be positive",
                                  field="pulse_spacing")
            # bounded before round(), which overflows at a tiny spacing
            intervals = self.tau_f / self.pulse_spacing
            if intervals > _MAX_PULSES + 1:
                raise ConfigError(f"pulse_spacing must leave at most "
                                  f"{_MAX_PULSES} pulses",
                                  field="pulse_spacing")
            self.n_pulses = max(0, round(intervals) - 1)
        if not 0 <= self.n_pulses <= _MAX_PULSES:
            raise ConfigError(f"n_pulses must lie in [0, {_MAX_PULSES}]",
                              field="n_pulses")
        if self.protocol not in _PROTOCOLS:
            raise ConfigError(f"protocol must be one of {_PROTOCOLS}",
                              field="protocol")
        if self.initial_state not in _STATES:
            raise ConfigError(f"initial_state must be one of {_STATES}",
                              field="initial_state")
        if self.points_per_interval < 2:
            raise ConfigError("need at least 2 grid points per inter-pulse "
                              "interval", field="points_per_interval")
        if self.min_points < 2:
            raise ConfigError("min_points must be at least 2",
                              field="min_points")
        if self.qsl_window not in _WINDOWS:
            raise ConfigError(f"qsl_window must be one of {_WINDOWS}",
                              field="qsl_window")
        if any(not 0 <= n <= _MAX_PULSES for n in self.n_values):
            raise ConfigError(f"n_values must lie in [0, {_MAX_PULSES}]",
                              field="n_values")
        if self.initial_state == "custom":  # named states are valid as built
            try:
                XStateSummary.from_state(self.state())
            except ValueError as exc:
                raise ConfigError(f"invalid custom initial state: {exc}",
                                  field="initial_state") from exc

    def state(self) -> TwoQubitState:
        """The initial state: a named one, or the custom X-state of the rho
        entries, whose rule :class:`XStateSummary` states."""
        if self.initial_state in _NAMED_STATES:
            return _NAMED_STATES[self.initial_state]()
        a14 = self.re_rho14 + 1j * self.im_rho14
        a23 = self.re_rho23 + 1j * self.im_rho23
        return TwoQubitState(np.array(
            [[self.rho11, 0, 0, a14], [0, self.rho22, a23, 0],
             [0, a23.conjugate(), self.rho33, 0],
             [a14.conjugate(), 0, 0, self.rho44]], dtype=complex))

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        """Parse key=value lines (see :func:`_parse_text`) and validate."""
        return cls(**_parse_text(text))

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "n_values":
                if not value:
                    continue
                value = ",".join(str(int(n)) for n in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"


_INT_KEYS = {"n_pulses", "points_per_interval", "min_points"}
_STR_KEYS = {"protocol", "initial_state", "qsl_window", "out"}


def _parse_value(key, value):
    if key == "n_values":
        return tuple(int(v) for v in value.split(",") if v.strip())
    if key in _INT_KEYS:
        return int(value)
    if key in _STR_KEYS:
        return value
    if key == "pulse_spacing" and value.lower() == "none":
        return None
    return float(value)


def _parse_text(text):
    """The field values of key=value lines, not yet validated; unknown keys
    and malformed lines raise :class:`ConfigError` with line diagnostics."""
    field_names = {f.name for f in fields(ScenarioConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key=value", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in field_names:
            raise ConfigError("unknown key", field=key, line=lineno)
        try:
            values[key] = _parse_value(key, value)
        except ValueError as exc:
            raise ConfigError(str(exc), field=key, line=lineno) from exc
    return values


def load_config(path, overrides=None) -> ScenarioConfig:
    """The scenario of the config file ``path`` with the parsed field values
    ``overrides`` on top, validated once, so overrides can repair a file
    that is only valid with them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return ScenarioConfig(**{**_parse_text(text), **(overrides or {})})

"""Scenario execution: assemble trajectories and emit CSV datasets.

Output is deterministic: metadata lives in '#'-prefixed header lines (the
full configuration echoed back, no timestamps), numbers are formatted with
9 significant digits, rows are in time order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import ScenarioConfig
from .correlations import (XStateSummary, concurrence_x, consonance,
                           discord_singlet)
from .dynamics import (ControlProtocol, ProtocolTag, TwoQubitState,
                       attenuation_functions, bell_phi_plus, q_columns,
                       singlet)
from .errors import NoCoherenceError
from .pulses import pdd_schedule
from .qsl import _FROZEN_TOL, cumulative_total_variation, phi0
from .spectral import SpectralParams

FROZEN_FOOTNOTE = ("# note: frozen dynamics (Q(t)=1 for all t); "
                   "QSLT columns left empty")
NO_COHERENCE_FOOTNOTE = ("# note: initial state carries no anti-diagonal "
                         "coherence; QSLT columns left empty")

TRACE_COLUMNS = ("t", "Q00", "Q10", "Q11", "C_t", "QC_t", "QD_t",
                 "qslt_ratio", "qslt_upper_bound")
SWEEP_COLUMNS = ("n", "regime", "t_eval", "Q00", "Q10", "Q11", "Q",
                 "qslt_ratio", "qslt_upper_bound")
# the protocol columns both datasets carry (Q01 equals Q10)
_CSV_TAGS = (ProtocolTag.Q00, ProtocolTag.Q10, ProtocolTag.Q11)


def _fmt(x):
    return "" if x is None else format(float(x), ".9g")


def initial_state(cfg: ScenarioConfig) -> TwoQubitState:
    if cfg.initial_state == "singlet":
        return singlet()
    if cfg.initial_state == "bell_phi_plus":
        return bell_phi_plus()
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = cfg.rho11, cfg.rho22, cfg.rho33, cfg.rho44
    m[0, 3] = cfg.re_rho14 + 1j * cfg.im_rho14
    m[1, 2] = cfg.re_rho23 + 1j * cfg.im_rho23
    m[3, 0] = m[0, 3].conjugate()
    m[2, 1] = m[1, 2].conjugate()
    return TwoQubitState(m)


def time_grid(cfg: ScenarioConfig, instants):
    """Grid over [0, tau_d] with every pulse instant (and tau_f) as a node,
    at least ``points_per_interval`` points per inter-pulse segment and at
    least ``min_points`` overall."""
    edges = sorted({0.0, cfg.tau_f, cfg.tau_d, *instants})
    segments = list(zip(edges[:-1], edges[1:]))
    ppi = max(cfg.points_per_interval,
              int(np.ceil(cfg.min_points / len(segments))))
    pieces = [np.linspace(a, b, ppi + 1) for a, b in segments]
    return np.unique(np.concatenate(pieces))


def _header(kind, cfg: ScenarioConfig, columns):
    # the output path is run-local, not part of the scenario; keep the
    # echoed header byte-stable across destinations
    echo = replace(cfg, out=None)
    return ([f"# dephasing-pdd {kind}"]
            + [f"# {line}" for line in echo.to_text().splitlines()]
            + [",".join(columns)])


def _qslt_cells(rho0, protocol, params, ts, q, fixed):
    """Formatted (qslt_ratio, qslt_upper_bound) cells at every time in
    ``ts``, and a footnote when every cell is empty.  Row i's window is
    [0, ts[i]], or [0, ts[-1]] when ``fixed``; its cells stay empty at
    t = 0 and where Q stays 1 to within 1e-14 on the window (0/0 ratio)."""
    try:
        pref = phi0(rho0)
    except NoCoherenceError:
        return [["", ""]] * len(ts), NO_COHERENCE_FOOTNOTE
    q_of_t, qdot_of_t = attenuation_functions(protocol, params)
    tv = cumulative_total_variation(q_of_t, ts,
                                    breakpoints=protocol.schedule.instants,
                                    qdot_of_t=qdot_of_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        if fixed:
            tv = np.full_like(tv, tv[-1])
            upper = pref * (1.0 - q) / (1.0 - q[-1])
        else:
            upper = np.where(np.abs(1.0 - q) <= _FROZEN_TOL, 0.0, pref)
        ratio = pref * np.abs(1.0 - q) / tv
    live = (ts > 0.0) & (tv > _FROZEN_TOL)
    cells = [[_fmt(r), _fmt(u)] if ok else ["", ""]
             for r, u, ok in zip(ratio, upper, live)]
    return cells, None if live.any() else FROZEN_FOOTNOTE


def run_trace(cfg: ScenarioConfig):
    """Trajectory dataset: one row per grid point over [0, tau_d].

    Returns (header_lines, rows); rows hold formatted strings, empty cells
    where a value is undefined (QD for non-singlet states, QSLT at t = 0
    or where Q stays 1 to within 1e-14 on the window).
    """
    params = SpectralParams(cfg.s, cfg.eta, cfg.omega_c)
    schedule = pdd_schedule(cfg.n_pulses, cfg.tau_f)
    protocol = ControlProtocol(ProtocolTag(cfg.protocol), schedule)
    rho0 = initial_state(cfg)
    ts = time_grid(cfg, schedule.instants)

    cols = q_columns(params, schedule, ts)
    q = cols[protocol.tag]
    x_t = XStateSummary.from_state(rho0, q)
    qd_t = (discord_singlet(q) if cfg.initial_state == "singlet"
            else [None] * len(ts))
    cells, footnote = _qslt_cells(rho0, protocol, params, ts, q,
                                  fixed=cfg.qsl_window == "fixed")

    columns = (ts, *(cols[tag] for tag in _CSV_TAGS), concurrence_x(x_t),
               consonance(x_t), qd_t)
    rows = [[_fmt(v) for v in values] + cell
            for *values, cell in zip(*columns, cells)]
    if footnote:
        rows.append([footnote])
    return _header("trace", cfg, TRACE_COLUMNS), rows


def run_sweep_n(cfg: ScenarioConfig, n_values):
    """Pulse-number sweep: one row per (n, regime) with the attenuation and
    QSLT columns evaluated at the regime's observation time (short:
    tau_d = tau_f; long: the configured tau_d).

    Each regime's QSLT window ends at its own evaluation time, so
    ``qsl_window`` = running and fixed give identical rows.
    """
    if not n_values:
        raise ValueError("n_values must be nonempty")
    params = SpectralParams(cfg.s, cfg.eta, cfg.omega_c)
    rho0 = initial_state(cfg)
    t_evals = np.array([cfg.tau_f, cfg.tau_d])

    rows, footnotes = [], set()
    for n in n_values:
        schedule = pdd_schedule(int(n), cfg.tau_f)
        protocol = ControlProtocol(ProtocolTag(cfg.protocol), schedule)
        cols = q_columns(params, schedule, t_evals)
        q = cols[protocol.tag]
        cells, footnote = _qslt_cells(rho0, protocol, params, t_evals, q,
                                      fixed=False)
        footnotes.add(footnote)
        for i, regime in enumerate(("short", "long")):
            rows.append([str(int(n)), regime, _fmt(t_evals[i]),
                         *(_fmt(cols[tag][i]) for tag in _CSV_TAGS),
                         _fmt(q[i]), *cells[i]])
    # a footnote stands only when it explains every row
    if len(footnotes) == 1 and None not in footnotes:
        rows.append([footnotes.pop()])
    return _header("sweep-n", cfg, SWEEP_COLUMNS), rows


def render_csv(header, rows) -> str:
    lines = list(header)
    for row in rows:
        lines.append(",".join(row) if len(row) > 1 else row[0])
    return "\n".join(lines) + "\n"

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
                       attenuation_functions, bell_phi_plus, singlet)
from .errors import NoCoherenceError
from .pulses import ControlledDecoherence, pdd_schedule
from .qsl import (QslInputs, cumulative_total_variation, phi0, qslt_ratio,
                  qslt_upper_bound)
from .spectral import SpectralParams, gamma0_analytic

FROZEN_FOOTNOTE = ("# note: frozen dynamics (Q(t)=1 for all t); "
                   "QSLT columns left empty")
NO_COHERENCE_FOOTNOTE = ("# note: initial state carries no anti-diagonal "
                         "coherence; QSLT columns left empty")

TRACE_COLUMNS = ("t", "Q00", "Q10", "Q11", "C_t", "QC_t", "QD_t",
                 "qslt_ratio", "qslt_upper_bound")
SWEEP_COLUMNS = ("n", "regime", "t_eval", "Q00", "Q10", "Q11", "Q",
                 "qslt_ratio", "qslt_upper_bound")


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


def _q_arrays(cfg, params, schedule, ts):
    g0 = gamma0_analytic(params, ts)
    if schedule.n_pulses:
        gc = ControlledDecoherence(lambda t: gamma0_analytic(params, t),
                                   schedule)(ts)
    else:
        gc = g0
    q00 = np.exp(-2.0 * g0)
    q11 = np.exp(-2.0 * gc)
    q10 = np.exp(-(g0 + gc))
    return q00, q10, q11


def _protocol_q(tag: str, q00, q10, q11):
    return {"Q00": q00, "Q10": q10, "Q01": q10, "Q11": q11}[tag]


def run_trace(cfg: ScenarioConfig):
    """Trajectory dataset: one row per grid point over [0, tau_d].

    Returns (header_lines, rows); rows hold formatted strings, empty cells
    where a value is undefined (QD for non-singlet states, QSLT at t = 0
    or under frozen dynamics).
    """
    params = SpectralParams(cfg.s, cfg.eta, cfg.omega_c)
    schedule = pdd_schedule(cfg.n_pulses, cfg.tau_f)
    protocol = ControlProtocol(ProtocolTag(cfg.protocol), schedule)
    rho0 = initial_state(cfg)
    ts = time_grid(cfg, schedule.instants)

    q00, q10, q11 = _q_arrays(cfg, params, schedule, ts)
    q = _protocol_q(cfg.protocol, q00, q10, q11)

    x_t = XStateSummary.from_state(rho0, q)
    c_t = concurrence_x(x_t)
    qc_t = consonance(x_t)
    is_singlet = cfg.initial_state == "singlet"
    qd_t = [discord_singlet(v) for v in q] if is_singlet else None

    footnote = None
    ratio = upper = None
    try:
        pref = phi0(rho0)
    except NoCoherenceError:
        footnote = NO_COHERENCE_FOOTNOTE
        pref = None
    if pref is not None:
        if cfg.eta == 0.0:
            footnote = FROZEN_FOOTNOTE
        else:
            q_of_t, qdot_of_t = attenuation_functions(protocol, params)
            cumtv = cumulative_total_variation(q_of_t, ts,
                                               breakpoints=schedule.instants,
                                               qdot_of_t=qdot_of_t)
            if cfg.qsl_window == "running":
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = pref * np.abs(1.0 - q) / cumtv
                upper = np.where(np.abs(1.0 - q) <= 1e-14, 0.0, pref)
            else:
                ratio = pref * np.abs(1.0 - q) / cumtv[-1]
                upper = pref * (1.0 - q) / (1.0 - q[-1])

    header = ["# dephasing-pdd trace"]
    # the output path is run-local, not part of the scenario; keep the
    # echoed header byte-stable across destinations
    echo = replace(cfg, out=None)
    header += [f"# {line}" for line in echo.to_text().splitlines()]
    header.append(",".join(TRACE_COLUMNS))

    rows = []
    for i, t in enumerate(ts):
        row = [_fmt(t), _fmt(q00[i]), _fmt(q10[i]), _fmt(q11[i]),
               _fmt(c_t[i]), _fmt(qc_t[i]),
               _fmt(qd_t[i]) if is_singlet else ""]
        if ratio is not None and t > 0.0:
            row += [_fmt(ratio[i]), _fmt(upper[i])]
        else:
            row += ["", ""]
        rows.append(row)
    if footnote:
        rows.append([footnote])
    return header, rows


def run_sweep_n(cfg: ScenarioConfig, n_values):
    """Pulse-number sweep: one row per (n, regime) with the attenuation and
    QSLT columns evaluated at the regime's observation time (short:
    tau_d = tau_f; long: the configured tau_d)."""
    if not n_values:
        raise ValueError("n_values must be nonempty")
    params = SpectralParams(cfg.s, cfg.eta, cfg.omega_c)
    rho0 = initial_state(cfg)
    frozen = cfg.eta == 0.0
    try:
        pref = phi0(rho0)
    except NoCoherenceError:
        pref = None

    header = ["# dephasing-pdd sweep-n"]
    # the output path is run-local, not part of the scenario; keep the
    # echoed header byte-stable across destinations
    echo = replace(cfg, out=None)
    header += [f"# {line}" for line in echo.to_text().splitlines()]
    header.append(",".join(SWEEP_COLUMNS))

    rows = []
    for n in n_values:
        schedule = pdd_schedule(int(n), cfg.tau_f)
        protocol = ControlProtocol(ProtocolTag(cfg.protocol), schedule)
        for regime, t_eval in (("short", cfg.tau_f), ("long", cfg.tau_d)):
            te = np.array([t_eval])
            q00, q10, q11 = _q_arrays(cfg, params, schedule, te)
            qv = float(_protocol_q(cfg.protocol, q00, q10, q11)[0])
            row = [str(int(n)), regime, _fmt(t_eval), _fmt(q00[0]),
                   _fmt(q10[0]), _fmt(q11[0]), _fmt(qv)]
            if pref is None or frozen:
                row += ["", ""]
            else:
                q_of_t, qdot_of_t = attenuation_functions(protocol, params)
                inputs = QslInputs(pref, q_of_t, tau_d=t_eval,
                                   breakpoints=schedule.instants,
                                   qdot_of_t=qdot_of_t)
                row += [_fmt(qslt_ratio(inputs, t_eval, window=cfg.qsl_window)),
                        _fmt(qslt_upper_bound(inputs, t_eval,
                                              window=cfg.qsl_window))]
            rows.append(row)
    if pref is None:
        rows.append([NO_COHERENCE_FOOTNOTE])
    elif frozen:
        rows.append([FROZEN_FOOTNOTE])
    return header, rows


def render_csv(header, rows) -> str:
    lines = list(header)
    for row in rows:
        lines.append(",".join(row) if len(row) > 1 else row[0])
    return "\n".join(lines) + "\n"

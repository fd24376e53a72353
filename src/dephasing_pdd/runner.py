"""Scenario execution: assemble trajectories and emit CSV datasets.

Output is deterministic: metadata lives in '#'-prefixed header lines (the
full configuration echoed back, no timestamps), numbers are formatted with
9 significant digits, rows are in time order.  :func:`render_csv` renders
each run of rows with the same empty cells in one C-level ``%`` call, as
``format(v, ".9g")``, formatting a float column of one value only once.

Each trace and each sweep point builds one
:class:`~dephasing_pdd.dynamics.Dephasing`, so the controlled Gamma is set
up once and serves the Q columns, the node values of the total variation
and the sign-only extrema search.  A trace's Q columns read the
controlled Gamma of the pulse train's segments off one table, on the
rows of :func:`time_grid`, one per segment at common fractions;
:func:`run_trace` alone flattens the rows into the trace's times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ScenarioConfig
from .correlations import (XStateSummary, concurrence_x, consonance,
                           discord_singlet)
from .dynamics import Dephasing, ProtocolTag
from .errors import ConfigError, NoCoherenceError
from .pulses import pdd_schedule
from .qsl import cumulative_total_variation, phi0, qslt_cells
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
# 245x the largest grid a shipped config or benchmark item builds (4,081
# points, fig3 and fig4 at N = 100)
_MAX_GRID_POINTS = 10 ** 6
_CHUNK_ROWS = 65_536  # rows per ``%`` call: bounds the cells held at once
_CONSTANT_ROWS = 64  # shortest run whose float columns are tested constant


@dataclass(frozen=True)
class Table:
    """CSV body: ``columns`` of float arrays (cells ``%.9g``) or lists of
    ready strings, per column a mask (or one bool) of the printed cells in
    ``live``, a footnote.  ``len`` counts the rows and the footnote."""

    columns: list
    live: list
    footnote: str | None = None

    def __len__(self):
        return len(self.columns[0]) + (self.footnote is not None)


def time_grid(cfg: ScenarioConfig, instants):
    """Rows of a grid over [0, tau_d] with every pulse instant (and tau_f)
    as a node, at least ``points_per_interval`` points per inter-pulse
    segment and at least ``min_points`` overall: row k samples segment k
    at the fractions x = linspace(0, 1, p + 1), returned with them, so a
    time two segments share ends one row and starts the next.  A grid of
    more than ``_MAX_GRID_POINTS`` points is a :class:`ConfigError`,
    raised before any is made."""
    edges = np.array(sorted({0.0, cfg.tau_f, cfg.tau_d, *instants}))
    segments = len(edges) - 1
    ppi = max(cfg.points_per_interval, -(-cfg.min_points // segments))
    points = ppi * segments + 1
    if points > _MAX_GRID_POINTS:
        raise ConfigError(
            f"the time grid would hold {points} points, more than "
            f"{_MAX_GRID_POINTS}: lower min_points, points_per_interval or "
            f"n_pulses")
    rows = np.linspace(edges[:-1], edges[1:], ppi + 1, axis=-1)
    return rows, np.linspace(0.0, 1.0, ppi + 1)


def _header(kind, cfg: ScenarioConfig, columns):
    # the output path is run-local, not part of the scenario; keep the
    # echoed header byte-stable across destinations
    echo = replace(cfg, out=None)
    return ([f"# dephasing-pdd {kind}"]
            + [f"# {line}" for line in echo.to_text().splitlines()]
            + [",".join(columns)])


def _qslt_values(rho0, dephasing, tag, ts, q, fixed):
    """(qslt_ratio, qslt_upper_bound) values at every time in ``ts``, the
    mask of the cells that are defined, and a footnote when none is.  Row
    i's window is [0, ts[i]], or [0, ts[-1]] when ``fixed``; its cells
    stay empty at t = 0 and where Q stays 1 to within 1e-14 on the window
    (0/0 ratio).  The total variation's extrema search scans the sign of
    :class:`~dephasing_pdd.dynamics.SignRate`; only the node values
    evaluate Q itself."""
    try:
        pref = phi0(rho0)
    except NoCoherenceError:
        nan = np.full(len(ts), np.nan)
        return nan, nan, np.zeros(len(ts), dtype=bool), NO_COHERENCE_FOOTNOTE
    q_of_t, qdot_of_t = dephasing.functions(tag)
    schedule = dephasing.schedule
    # tau_f splits the window too: the last pulse period's brackets are
    # as narrow as the train's, and both callers evaluate Q there already
    tv = cumulative_total_variation(
        q_of_t, ts, q, breakpoints=(*schedule.instants, schedule.tau_f),
        qdot_of_t=qdot_of_t)
    ratio, upper, defined = qslt_cells(pref, q, tv, fixed)
    live = (ts > 0.0) & defined
    return ratio, upper, live, None if live.any() else FROZEN_FOOTNOTE


def run_trace(cfg: ScenarioConfig):
    """Trajectory dataset: one row per grid point over [0, tau_d].

    Returns (header_lines, :class:`Table`), with empty cells where a value
    is undefined (QD for non-singlet states, QSLT at t = 0 or where Q
    stays 1 to within 1e-14 on the window).
    """
    params = SpectralParams(cfg.s, cfg.eta, cfg.omega_c)
    schedule = pdd_schedule(cfg.n_pulses, cfg.tau_f)
    tag = ProtocolTag(cfg.protocol)
    rho0 = cfg.state()
    rows, x = time_grid(cfg, schedule.instants)
    # a time two segments share is sampled where its first segment ends
    ts, first = np.unique(rows, return_index=True)

    dephasing = Dephasing(params, schedule)
    cols = {tag: q.ravel()[first]
            for tag, q in dephasing.q_columns(rows, x).items()}
    q = cols[tag]
    x_t = XStateSummary.from_state(rho0, q)
    singlet = cfg.initial_state == "singlet"
    ratio, upper, live, footnote = _qslt_values(
        rho0, dephasing, tag, ts, q, fixed=cfg.qsl_window == "fixed")

    table = Table([ts, *(cols[tag] for tag in _CSV_TAGS), concurrence_x(x_t),
                   consonance(x_t), discord_singlet(q) if singlet else None,
                   ratio, upper], [True] * 6 + [singlet, live, live], footnote)
    return _header("trace", cfg, TRACE_COLUMNS), table


def run_sweep_n(cfg: ScenarioConfig):
    """Pulse-number sweep: one row per (n, regime) with the attenuation and
    QSLT columns evaluated at the regime's observation time (short:
    tau_d = tau_f; long: the configured tau_d).

    Each regime's QSLT window ends at its own evaluation time, so
    ``qsl_window`` = running and fixed give identical rows.
    """
    if not cfg.n_values:
        raise ConfigError("sweep-n requires a nonempty --n-values or "
                          "n_values config entry", field="n_values")
    params = SpectralParams(cfg.s, cfg.eta, cfg.omega_c)
    tag = ProtocolTag(cfg.protocol)
    rho0 = cfg.state()
    t_evals = np.array([cfg.tau_f, cfg.tau_d])

    blocks, footnotes = [], set()
    for n in cfg.n_values:
        dephasing = Dephasing(params, pdd_schedule(int(n), cfg.tau_f))
        cols = dephasing.q_columns(t_evals)
        q = cols[tag]
        *qslt, footnote = _qslt_values(rho0, dephasing, tag, t_evals, q,
                                       fixed=False)
        footnotes.add(footnote)
        blocks.append((t_evals, *(cols[tag] for tag in _CSV_TAGS), q, *qslt))
    *values, live = map(np.concatenate, zip(*blocks))
    regimes = ("short", "long")  # at t_evals[0] and t_evals[1]
    # a footnote stands only when it explains every row
    table = Table([[str(int(n)) for n in cfg.n_values for _ in regimes],
                   [*regimes] * len(cfg.n_values), *values],
                  [True] * 7 + [live, live],
                  footnotes.pop() if len(footnotes) == 1 else None)
    return _header("sweep-n", cfg, SWEEP_COLUMNS), table


def render_csv(header, table: Table) -> str:
    """Header lines, rows, footnote: one ``(row_format * rows) % cells``
    call per run of at most ``_CHUNK_ROWS`` rows with the same empty cells;
    a float column of one value (bit for bit) down a run of at least
    ``_CONSTANT_ROWS`` rows is formatted once, as text in the row format."""
    rows = len(table.columns[0])
    live = np.column_stack([np.broadcast_to(on, rows) for on in table.live])
    cuts = np.flatnonzero((live[1:] != live[:-1]).any(axis=1)) + 1
    bounds = sorted({*range(0, rows, _CHUNK_ROWS), *cuts.tolist(), rows})
    text = [line + "\n" for line in header]
    for lo, hi in zip(bounds, bounds[1:]):
        shown = [v[lo:hi] if on else None
                 for v, on in zip(table.columns, live[lo])]
        formats = ["" if v is None else "%s" if isinstance(v, list)
                   else "%.9g" if (hi - lo < _CONSTANT_ROWS or (
                       v.view(np.int64) != v[:1].view(np.int64)).any())
                   else format(float(v[0]), ".9g") for v in shown]
        cells = np.array([v for v, f in zip(shown, formats) if f in (
            "%s", "%.9g")], dtype=object).T.ravel().tolist()
        text.append((",".join(formats) + "\n") * (hi - lo) % tuple(cells))
    return "".join(text) + (f"{table.footnote}\n" if table.footnote else "")

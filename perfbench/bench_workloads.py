"""Seeded workload generator and the items each workload runs.

A workload is a fixed mix of scenarios (pulse count, protocol, initial
state, QSLT window) whose bath and timing parameters are drawn from the
seed.  The bands are narrow jitters around the paper's figure parameters
(s = 1 Markovian, s = 3 non-Markovian, eta = 0.5, tau_f = 10, tau_d = 30),
so every seed keeps the same extrema structure and does comparable work,
while no seed replays the checked-in figure configs exactly.

The program only ever sees what a user would give it: the sweep and trace
items write a config file and call ``cli.main`` with it; the oracle items
call the public oracle functions.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "trace", "oracle")

# s bands either side of the Markovian/non-Markovian boundary at s = 2
S_BANDS = {"markovian": (0.95, 1.05), "non_markovian": (2.9, 3.1)}
ETA_BAND = (0.4, 0.6)
TAU_F_BAND = (9.5, 10.5)
TAU_D_OVER_TAU_F = (2.8, 3.2)

# The paper's N-set is {1, 2, 5, 10, 20, 50, 100}.  When this benchmark
# was written one Q11 sweep point cost ~5 s at N = 50 and ~12 s at
# N = 100.  Every item of every mix is kept under about a second: the
# host's speed moves within a second, and an item's time is normalized by
# a kernel timed next to it (bench_speed.py), which cannot follow the
# speed through a long item.  So the sweep stops at N = 20 and the trace
# mix covers N = 100 with its cheaper protocols and Q11 at N = 30 (a Q11
# trace at N = 100 costs 3-5 s).
SWEEP_N_VALUES = (1, 2, 5, 10, 20)


@dataclass(frozen=True)
class Scenario:
    """One item's inputs: the bath draw plus the fixed mix entries."""

    name: str
    regime: str
    s: float
    eta: float
    tau_f: float
    tau_d: float
    protocol: str
    state: str = "singlet"
    window: str = "running"
    n: int = 0
    diag: tuple = ()

    def config_text(self, with_n_pulses=True) -> str:
        lines = [f"# perfbench scenario {self.name}",
                 f"s={self.s!r}", f"eta={self.eta!r}", "omega_c=1.0",
                 f"tau_f={self.tau_f!r}", f"tau_d={self.tau_d!r}",
                 f"protocol={self.protocol}",
                 f"initial_state={self.state}",
                 f"qsl_window={self.window}"]
        if with_n_pulses:
            lines.append(f"n_pulses={self.n}")
        if self.state == "custom":
            lines += [f"rho{k}{k}={d!r}" for k, d in zip((1, 2, 3, 4), self.diag)]
            lines += ["re_rho14=0.0", "im_rho14=0.0",
                      "re_rho23=0.0", "im_rho23=0.0"]
        return "\n".join(lines) + "\n"


@dataclass
class Item:
    """One unit of timed work: a CLI call writing ``out``, or one oracle
    ``route`` of a scenario."""

    name: str
    kind: str
    scenario: Scenario
    argv: list = field(default_factory=list)
    out: Path | None = None
    route: str = ""


def _draw(rng: random.Random, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def draw_scenario(workload, seed, index, regime, **mix) -> Scenario:
    # one generator per (workload, seed, scenario) so adding a scenario to
    # one workload never reshuffles the draws of another
    rng = random.Random(f"perfbench/{workload}/{seed}/{index}")
    s = _draw(rng, *S_BANDS[regime])
    eta = _draw(rng, *ETA_BAND)
    tau_f = _draw(rng, *TAU_F_BAND)
    tau_d = round(tau_f * rng.uniform(*TAU_D_OVER_TAU_F), 4)
    diag = ()
    if mix.get("state") == "custom":
        raw = [rng.uniform(0.1, 1.0) for _ in range(4)]
        diag = [round(x / sum(raw), 6) for x in raw]
        diag[-1] = round(1.0 - sum(diag[:-1]), 6)
        diag = tuple(diag)
    return Scenario(name=f"{workload}{index:02d}", regime=regime, s=s,
                    eta=eta, tau_f=tau_f, tau_d=tau_d, diag=diag, **mix)


# The fixed mixes.  Sweep entries: (regime, protocol, state, window), each
# run at every N of SWEEP_N_VALUES; trace and oracle entries: (regime,
# protocol, state, window, n).
# Each mix has at least 40 items so that the item tail percentile (the
# highest with ten items above it) is p75 or higher.
REGIMES = ("markovian", "non_markovian")
STATE_WINDOWS = (("singlet", "running"), ("bell_phi_plus", "fixed"))

SWEEP_MIX = [
    (regime, proto, state, window)
    for state, window in STATE_WINDOWS
    for regime in REGIMES
    for proto in ("Q11", "Q10")
]

TRACE_MIX = [
    (regime, proto, state, window, n)
    for n in (10, 20)
    for regime in REGIMES
    for proto in ("Q00", "Q10", "Q11")
    for state, window in STATE_WINDOWS
] + [
    # N = 100: Q00 keeps pulses out of the cumulative TV, but like every
    # pulsed item it still evaluates the controlled Gamma once over the
    # grid, because the CSV carries all three Q columns
    ("markovian", "Q00", "singlet", "running", 100),
    ("non_markovian", "Q00", "bell_phi_plus", "fixed", 100),
    ("markovian", "Q10", "bell_phi_plus", "fixed", 100),
    ("non_markovian", "Q11", "singlet", "running", 30),
] + [
    # no anti-diagonal coherence: bypasses qsl
    (regime, proto, "custom", window, n)
    for regime in REGIMES
    for proto in ("Q00", "Q10", "Q11")
    for n, window in ((10, "running"), (100, "fixed"))
] + [
    # pulse-free (n_pulses = 0): the only items that never enter pulses
    ("markovian", "Q00", "singlet", "running", 0),
    ("non_markovian", "Q00", "bell_phi_plus", "fixed", 0),
]

# every qslt item costs under about a second; in the ML/MT oracle a
# non-Markovian Q11 at N = 5, a Q11 at N = 10 or a Q10 at N = 20 costs
# 1-4 s
ORACLE_MIX = [
    ("markovian", "Q00", "singlet", "running", 2),
    ("markovian", "Q00", "bell_phi_plus", "running", 5),
    ("markovian", "Q10", "bell_phi_plus", "running", 2),
    ("markovian", "Q11", "singlet", "running", 2),
    ("markovian", "Q10", "singlet", "running", 5),
    ("markovian", "Q11", "bell_phi_plus", "running", 5),
    ("markovian", "Q00", "singlet", "running", 10),
    ("non_markovian", "Q00", "bell_phi_plus", "running", 2),
    ("non_markovian", "Q00", "singlet", "running", 5),
    ("non_markovian", "Q10", "singlet", "running", 2),
    ("non_markovian", "Q11", "bell_phi_plus", "running", 2),
    ("non_markovian", "Q10", "bell_phi_plus", "running", 5),
    ("non_markovian", "Q10", "singlet", "running", 5),
    ("non_markovian", "Q00", "singlet", "running", 20),
]

# one oracle item per (scenario, route)
ORACLE_ROUTES = ("spectral", "filter", "qslt")

# Each oracle mix entry is drawn this many times.  The ML/MT oracle
# refines each segment by doubling until it settles, so one bath draw
# against another can double an item's work; more draws per seed keep the
# work of a pass about the same from seed to seed.
ORACLE_DRAWS = 2


def build_items(workload, seed, workdir: Path) -> list[Item]:
    """The workload's items for this seed; writes the config files the CLI
    items read into ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    if workload == "sweep":
        for i, (regime, proto, state, window) in enumerate(SWEEP_MIX):
            sc = draw_scenario(workload, seed, i, regime, protocol=proto,
                               state=state, window=window)
            cfg = workdir / f"{sc.name}.cfg"
            cfg.write_text(sc.config_text(with_n_pulses=False))
            for n in SWEEP_N_VALUES:
                out = workdir / f"{sc.name}_n{n}.csv"
                argv = ["sweep-n", "--config", str(cfg), "--n-values", str(n),
                        "--out", str(out)]
                items.append(Item(f"{sc.name}/n{n}", "sweep",
                                  replace(sc, n=n), argv, out))
    elif workload == "trace":
        for i, (regime, proto, state, window, n) in enumerate(TRACE_MIX):
            sc = draw_scenario(workload, seed, i, regime, protocol=proto,
                               state=state, window=window, n=n)
            cfg = workdir / f"{sc.name}.cfg"
            cfg.write_text(sc.config_text())
            out = workdir / f"{sc.name}.csv"
            argv = ["trace", "--config", str(cfg), "--out", str(out)]
            items.append(Item(f"{sc.name}/{proto}/n{n}/{state}/{window}",
                              "trace", sc, argv, out))
    else:
        mix = ORACLE_MIX * ORACLE_DRAWS
        for i, (regime, proto, state, window, n) in enumerate(mix):
            sc = draw_scenario(workload, seed, i, regime, protocol=proto,
                               state=state, window=window, n=n)
            for route in ORACLE_ROUTES:
                items.append(Item(f"{sc.name}/{route}/{proto}/n{n}/{state}",
                                  "oracle", sc, route=route))
    return items


# -- oracle items -----------------------------------------------------------

def _initial_state(dp, sc: Scenario):
    if sc.state == "singlet":
        return dp.dynamics.singlet()
    return dp.dynamics.bell_phi_plus()


def random_x_state(dp, rng: random.Random):
    """A random valid X-state: Dirichlet-like diagonals, coherences inside
    the block-positivity discs."""
    raw = [rng.expovariate(1.0) for _ in range(4)]
    d = [x / sum(raw) for x in raw]
    a14 = (rng.random() * math.sqrt(d[0] * d[3])
           * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    a23 = (rng.random() * math.sqrt(d[1] * d[2])
           * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    m = np.diag(d).astype(complex)
    m[0, 3], m[3, 0] = a14, a14.conjugate()
    m[1, 2], m[2, 1] = a23, a23.conjugate()
    return dp.dynamics.TwoQubitState(m)


ORACLE_CONCURRENCE_STATES = 4


def oracle_times(sc: Scenario):
    """Fixed fractions of the scenario's windows, so every seed evaluates
    the same shape of problem."""
    return {
        "gamma0": (0.37 * sc.tau_f, 0.81 * sc.tau_d),
        "controlled": (0.43 * sc.tau_f, 1.27 * sc.tau_f),
        "qslt": 0.55 * sc.tau_f,
    }


def _trajectory(dp, sc: Scenario):
    p = dp.spectral.SpectralParams(sc.s, sc.eta)
    sched = dp.pulses.pdd_schedule(sc.n, sc.tau_f)
    protocol = dp.dynamics.ControlProtocol(
        dp.dynamics.ProtocolTag(sc.protocol), sched)
    q_of_t, qdot_of_t = dp.dynamics.attenuation_functions(protocol, p)
    return p, sched, q_of_t, qdot_of_t


def run_oracle_item(dp, sc: Scenario, route: str) -> dict:
    """{check: [(closed form, oracle), ...]} for one cross-check route;
    the gate compares the pairs outside the timed region.

    spectral: Gamma0 closed form vs quadrature, and the X-state
              concurrence vs the Wootters eigenvalue route;
    filter:   controlled Gamma vs the filter-function integral;
    qslt:     qslt_ratio vs the general ML/MT bound.
    """
    p, sched, q_of_t, qdot_of_t = _trajectory(dp, sc)
    times = oracle_times(sc)
    if route == "spectral":
        gamma0 = [(dp.spectral.gamma0_analytic(p, t),
                   dp.spectral.gamma0_quadrature(p, t, tol=1e-9))
                  for t in times["gamma0"]]
        concurrence = []
        rng = random.Random(f"perfbench/oracle-states/{sc.name}/{sc.s}")
        for k in range(ORACLE_CONCURRENCE_STATES):
            rho = random_x_state(dp, rng)
            qv = float(q_of_t((k + 1) * sc.tau_d / ORACLE_CONCURRENCE_STATES))
            closed = dp.correlations.concurrence_x(
                dp.correlations.XStateSummary.from_state(rho, qv))
            evolved = dp.dynamics.two_qubit_evolve(
                rho, dp.dynamics.Attenuation(max(qv, 1e-300), 1.0))
            concurrence.append(
                (closed, dp.correlations.concurrence_wootters(evolved)))
        return {"gamma0": gamma0, "concurrence": concurrence}
    if route == "filter":
        gamma = dp.pulses.ControlledDecoherence(
            dp.pulses.free_decoherence(p), sched)
        return {"controlled": [(gamma(t), dp.pulses.controlled_gamma_quadrature(
            p, sched, t, tol=1e-8)) for t in times["controlled"]]}
    if route == "qslt":
        rho0 = _initial_state(dp, sc)
        te = times["qslt"]
        inputs = dp.qsl.QslInputs(dp.qsl.phi0(rho0), q_of_t, tau_d=te,
                                  breakpoints=sched.instants,
                                  qdot_of_t=qdot_of_t)
        ratio = dp.qsl.qslt_ratio(inputs, te, rel_tol=1e-9)
        general = dp.qsl.qslt_general(rho0, q_of_t, qdot_of_t, te,
                                      breakpoints=sched.instants,
                                      rel_tol=1e-9)
        return {"qslt": [(ratio, general / te)]}
    raise ValueError(f"unknown oracle route {route!r}")


def derivative_free_pair(dp, sc: Scenario):
    """(derivative route, derivative-free route) of qslt_ratio for one
    scenario; run by the gate, outside the timed region."""
    _, sched, q_of_t, qdot_of_t = _trajectory(dp, sc)
    pref = dp.qsl.phi0(_initial_state(dp, sc))
    te = oracle_times(sc)["qslt"]
    with_d = dp.qsl.QslInputs(pref, q_of_t, tau_d=te,
                              breakpoints=sched.instants, qdot_of_t=qdot_of_t)
    without = dp.qsl.QslInputs(pref, q_of_t, tau_d=te,
                               breakpoints=sched.instants)
    return (dp.qsl.qslt_ratio(with_d, te), dp.qsl.qslt_ratio(without, te))

"""Exact two-qubit pure-dephasing dynamics with bang-bang periodic
dynamical decoupling: attenuation factors, quantum correlation measures
and quantum-speed-limit-time bounds."""

from .config import ScenarioConfig, load_config
from .correlations import (XStateSummary, concurrence_wootters, concurrence_x,
                           consonance, discord_singlet, purity,
                           relative_purity)
from .dynamics import (Attenuation, ControlProtocol, ProtocolTag,
                       TwoQubitState, attenuation_functions, bell_phi_plus,
                       dephasing_kraus, q_columns, q_factor,
                       single_qubit_evolve, singlet, two_qubit_evolve)
from .errors import (ConfigError, FrozenDynamicsError, NoCoherenceError,
                     QuadratureError)
from .pulses import (ControlledDecoherence, PulseSchedule,
                     controlled_gamma_quadrature, free_decoherence,
                     pdd_schedule)
from .qsl import (QslInputs, cumulative_total_variation, phi0, qslt_general,
                  qslt_ratio, qslt_upper_bound, total_variation)
from .spectral import (SpectralParams, gamma0_analytic, gamma0_derivative,
                       gamma0_quadrature, spectral_density)

__version__ = "0.1.0"

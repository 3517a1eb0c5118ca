"""Small-signal dynamics of hybrid AC/DC power networks under dual-port
grid-forming control.

Subpackages by layer: ``lti`` (polynomials, transfer functions, state space),
``units`` (device factories and per-unit bases), ``network`` (graphs,
Laplacians, Kron reduction, network blocks), ``system`` (closed-loop
assembly, presets), ``analysis`` (Bode, stability, bounds, sweeps), ``cli``.
"""

__version__ = "0.1.0"

from .lti import (AlgebraicLoop, FrequencyResponse, ImproperTF, NoDcGain,
                  NumericFailure, Pole, PoleHit, Polynomial, RationalTF,
                  SingularAtFrequency, Spectrum, StateSpace, TimeSeries,
                  TooShort, UnstableWarning, compose, dc_gain, fft_magnitude,
                  freq_response, integrator, poles, step_response, tf_to_ss)
from .units import (GfmCtrlParams, PerUnitBase, SgParams, VscParams,
                    convert_k_pv, gfm_ctrl_tf, governor_droop_tf, sm_tf,
                    vsc_dclink_tf)
from .network import (AcEdge, DcEdge, HybridGraph, LoadBlockVerdict, NodeKind,
                      SingularLL, ac_edge_tf, check_assumption1, dc_edge_tf,
                      kron_reduce, kron_reduce_symbolic, line_impedance,
                      load_cable_catalog)
from .system import (ClosedLoopModel, ImproperController, NoDroop,
                     SteadyState, SystemConfig, build, config_from_dict,
                     nominal_dc_dispatch, resolve_scenario, steady_state)
from . import analysis

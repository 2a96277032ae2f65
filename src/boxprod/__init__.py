"""Influence, isoperimetry and SDP-lifting analysis on Cartesian powers
of weighted graphs."""

from .functions import FunctionTable, dictator, from_values, parity, random_boolean
from .gadgets import (ConsecutiveOnesFunction, build_necklace,
                      consecutive_ones_function, influence_monte_carlo,
                      named_graph, probability_minus_one)
from .graphs import (DenseCapError, ProductGraph, WeightedGraph, build_graph,
                     cartesian_power, complete_graph, cycle_graph, graph_from_dict,
                     graph_to_dict, load_graph, path_graph)
from .influence import (InfluenceReport, JuntaResult, corollary_check,
                        corollary_sweep, friedgut_extract, is_junta_on,
                        kkl_report, main_lemma_check)
from .isoperimetry import (LogSobolevEstimate, Measures, conductance_bruteforce,
                           conductance_functional, cut_ratio, cut_ratios,
                           log_sobolev_estimate, product_scaling_report,
                           witness_ratio)
from .sdp import (LocalDistributions, SdpSolution, SetVectorSolution,
                  basic_sdp_opt, check_triangle, lasserre_from_distribution,
                  lift_lasserre, lift_sherali_adams, lift_vectors,
                  random_cut_combination,
                  random_feasible_sdp, sa_from_distribution,
                  uniform_cut_distribution, vectors_from_distribution,
                  vectors_from_local_tables)
from .spectral import (Decomposition, FourierCoefficients, SpectralBasis,
                       decompose, dirichlet_form, directional_form,
                       eigendecompose, fourier_transform, influence_profile,
                       inverse_transform)

__version__ = "0.1.0"

"""starflow: simulation and verification toolkit for discrete approximations
of Tanaka-type stochastic flows on an N-ray star graph."""

__version__ = "0.1.0"

from .graph import DiscreteMeasure, GraphPoint, RayParams, graph_distance, junction, point
from .beta import beta_distance
from .walk import NOT_HIT, WalkWindow, generate_walk, random_increments
from .cv import cv_inverse_increments, transform
from .chain import FlipBatch, flip_batches, simulate_chain_batch, transition_counts
from .flows import (FlowRealization, kernel_closed_form, kernel_compose,
                    kernel_is_conditional_law, psi_closed_form, psi_compose)
from .limit import ContinuousPath, convergence_profiles, rescale_path, tau_hit
from .stats import chi_square, half_normal_cdf, walsh_marginal_check

__all__ = [
    "DiscreteMeasure", "GraphPoint", "RayParams", "graph_distance", "junction",
    "point", "beta_distance", "NOT_HIT",
    "WalkWindow", "generate_walk", "random_increments",
    "cv_inverse_increments", "transform", "FlipBatch", "flip_batches",
    "simulate_chain_batch", "transition_counts",
    "FlowRealization", "kernel_closed_form",
    "kernel_compose", "kernel_is_conditional_law", "psi_closed_form",
    "psi_compose", "ContinuousPath", "convergence_profiles",
    "rescale_path", "tau_hit",
    "chi_square", "half_normal_cdf", "walsh_marginal_check",
]

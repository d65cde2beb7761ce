"""Intention-conditioned vehicle trajectory prediction pipeline.

Candidate trajectories are sampled along lane paths with constant
acceleration speed profiles, ranked by posterior (intention prior times
exp(-cost) likelihood), and the cost weights are tuned from logged ground
truth with a max-margin hinge objective. An annotation stage labels logged
tracks and an evaluation stage scores predictions with ADE/FDE.
"""

from .scene import load_scene

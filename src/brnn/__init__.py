"""Stable recurrent state-space network with multiplier backpropagation.

The model keeps a fixed stable linear state term so bounded inputs yield
bounded trajectories; training derives the backward error recursion from
the Lagrange multipliers of the rollout constraints and supports several
per-step gradient aggregation rules. Companion modules certify the bounded
region (Liapunov analysis) and cross-check every gradient against a finite
difference oracle.

The package re-exports nothing: import each name from its module
(`from brnn.model import forward`), as README's library layout table lists
them. The version is the one in pyproject.toml.
"""

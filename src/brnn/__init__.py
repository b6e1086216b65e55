"""Stable recurrent state-space network with multiplier backpropagation.

The model keeps a fixed stable linear state term so bounded inputs yield
bounded trajectories; training derives the backward error recursion from
the Lagrange multipliers of the rollout constraints and supports several
per-step gradient aggregation rules. Companion modules certify the bounded
region (Liapunov analysis) and cross-check every gradient against a finite
difference oracle.
"""

from .adjoint import (CostateSeq, GradSet, backward_costates, per_step_gradients,
                      step_norms, summed_gradients)
from .errors import (CheckpointFormatError, ConfigurationError,
                     CostateExplosionError, DatasetFormatError,
                     DivergenceError, NumericalError, StateOverflowError,
                     UnboundedRegionError)
from .loss import CostBreakdown, LossWeights, state_loss_grad, total_cost
from .model import BrnnParams, NONLINEARITIES, Sequence, Trajectory, forward, step_rate
from .stability import (LyapunovRegion, StabilityReport, bibo_bound,
                        lyapunov_region, make_stable_A, stability_report)
from .tasks import TaskSpec, gen_task, read_csv, write_csv
from .trainer import (AGGREGATIONS, EpochMetrics, TrainConfig, aggregate,
                      apply_update, init_params, train)
from .verify import (GradCheckReport, compare_gradients, gradcheck,
                     numeric_gradient, random_instance)

__version__ = "0.1.0"

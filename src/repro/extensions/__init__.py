"""Extensions beyond the paper's model.

The paper analyses the *synchronous, noiseless, fully-conformist*
Best-of-Three dynamics.  The three standard relaxations studied in the
surrounding literature are protocols of the ensemble engine
(:mod:`repro.core.protocols`): ``NoisyBestOfK`` (ε-noisy updates),
``AsyncSweepBestOfK`` (sequential updates measured in sweeps of ``n``
ticks) and ``ZealotBestOfK`` (stubborn blue vertices).  This subpackage
keeps the analysis that goes with them:

* :mod:`repro.extensions.noisy_dynamics` — the noisy map's pitchfork at
  ``eta* = 1/3`` and its exact fixed points (E13).
"""

from repro.extensions.noisy_dynamics import CRITICAL_NOISE, noisy_fixed_points

__all__ = ["CRITICAL_NOISE", "noisy_fixed_points"]

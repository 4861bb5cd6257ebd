"""Cost-functional data: tracking targets, weights, and control bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ControlProblemSpec:
    """Weights kappa_1..kappa_5, tracking targets, and box bounds on the control.

    phi_Q and S_Q are time-fields on the full node set (n_steps + 1, N);
    phi_Omega and S_Omega are terminal-time fields (N,); u_min and u_max are
    broadcastable against controls of shape (n_steps, N).
    """

    kappas: np.ndarray
    phi_Q: np.ndarray
    S_Q: np.ndarray
    phi_Omega: np.ndarray
    S_Omega: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappas", np.asarray(self.kappas, dtype=float))
        for name in ("phi_Q", "S_Q", "phi_Omega", "S_Omega", "u_min", "u_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.kappas.shape != (5,) or np.any(self.kappas < 0.0):
            raise ValueError("kappas must be five nonnegative weights")
        for name in ("kappas", "phi_Q", "S_Q", "phi_Omega", "S_Omega"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        # infinite bounds leave the control unconstrained; a NaN fails the test
        if not np.all(self.u_min <= self.u_max):
            raise ValueError("admissible bounds require u_min <= u_max pointwise")

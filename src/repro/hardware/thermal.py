"""First-order thermal model for devices (extension beyond the paper).

The paper fixes fan speed and does not model temperature; we include a simple
lumped RC model so that (a) the THERMAL fan mode has a physical driver and
(b) robustness experiments can inject temperature-dependent disturbances.

``T' = (T_ambient + R_th * P - T) / tau`` discretized with forward Euler.
"""

from __future__ import annotations

from ..units import require_positive

__all__ = ["ThermalNode"]


class ThermalNode:
    """Lumped thermal RC node attached to one device.

    Parameters
    ----------
    r_th_c_per_w:
        Thermal resistance junction-to-ambient in degC per watt.
    tau_s:
        Thermal time constant in seconds.
    t_ambient_c:
        Ambient (inlet) temperature.
    """

    def __init__(
        self,
        r_th_c_per_w: float = 0.12,
        tau_s: float = 25.0,
        t_ambient_c: float = 27.0,
    ):
        self.r_th = require_positive(r_th_c_per_w, "r_th_c_per_w")
        self.tau = require_positive(tau_s, "tau_s")
        self.t_ambient = float(t_ambient_c)
        self._temp = self.t_ambient

    @property
    def temperature_c(self) -> float:
        """Current junction temperature."""
        return self._temp

    def steady_state_c(self, power_w: float) -> float:
        """Temperature the node settles at under constant ``power_w``."""
        return self.t_ambient + self.r_th * power_w

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the node by ``dt_s`` seconds under dissipation ``power_w``.

        Uses an exact exponential update (stable for any ``dt_s``), not raw
        Euler, so large simulation ticks cannot destabilize the model.
        """
        import math

        target = self.steady_state_c(power_w)
        alpha = 1.0 - math.exp(-dt_s / self.tau)
        self._temp += alpha * (target - self._temp)
        return self._temp

    def reset(self) -> None:
        """Return to ambient temperature."""
        self._temp = self.t_ambient

    @staticmethod
    def step_many(nodes: "list[ThermalNode]", powers_w, dt_s: float) -> float:
        """Advance several nodes one tick; returns the hottest temperature.

        Equivalent to calling :meth:`step` per node — each node keeps its
        own ``math.exp`` (libm, so results match :meth:`step` exactly)
        while the state updates collapse into one pass. Used by the server's
        stepping path.
        """
        import math

        hottest = -math.inf
        for node, p in zip(nodes, powers_w):
            target = node.t_ambient + node.r_th * p
            alpha = 1.0 - math.exp(-dt_s / node.tau)
            node._temp += alpha * (target - node._temp)
            if node._temp > hottest:
                hottest = node._temp
        return hottest

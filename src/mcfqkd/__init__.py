"""Entanglement-based QKD over opposite cores of a multicore fiber.

Monte Carlo timetag simulation, coincidence analysis (cross-correlation,
windowed matching, accidental estimation), visibility/QBER/key-rate
evaluation, ring-level reports, a long-term stability protocol and analytic
key-rate extrapolation versus fiber length.
"""

__version__ = "0.1.0"

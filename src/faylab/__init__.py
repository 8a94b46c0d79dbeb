"""fay-lab: theta-function, prime-form and quasideterminant identity checks
on concrete curves of genus 1-3."""

from .theta import (RiemannMatrix, ThetaChar, theta, theta_batch,
                    theta_gradient, truncation_radius, theta_chars,
                    odd_theta_chars, NonPositiveDefinite, ToleranceUnachievable)

__all__ = [
    "RiemannMatrix", "ThetaChar", "theta", "theta_batch",
    "theta_gradient", "truncation_radius", "theta_chars", "odd_theta_chars",
    "NonPositiveDefinite", "ToleranceUnachievable",
]

__version__ = "0.1.0"

"""Shared hypothesis profile: deterministic, no deadline."""

from __future__ import annotations

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

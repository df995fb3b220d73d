"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["QHaarError", "DomainError", "ConvergenceError", "TruncationPolicyError"]


class QHaarError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QHaarError):
    """Input lies outside the validity region of an operation."""


class ConvergenceError(QHaarError):
    """A series, product, or iteration failed to meet its tolerance
    within the configured term/iteration budget."""


class TruncationPolicyError(ConvergenceError):
    """Requested truncation size is too small for the polynomial degree
    and tolerance at the given q."""

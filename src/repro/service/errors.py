"""The service's typed rejections: the HTTP family of :mod:`repro.boundary`,
re-exported under their old path.  ``ServiceError`` is the base class."""

from repro.boundary import (
    AuthError,
    BadRequest,
    BoundaryError,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    QueueFull,
    WrongTenant,
)

ServiceError = BoundaryError

__all__ = [
    "AuthError", "BadRequest", "MethodNotAllowed", "NotFound", "PayloadTooLarge", "QueueFull",
    "ServiceError", "WrongTenant",
]

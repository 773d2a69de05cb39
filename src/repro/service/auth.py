"""Per-user HMAC bearer tokens, grown from the Chirp shared secret.

:mod:`repro.chirp.auth` derives one shared secret per execution and
reveals it through the local file system -- "secure to the same degree
as the local system".  The service edge needs more: many users, over the
network, with expiry.  The growth path keeps the same shape:

1. The operator holds one *service secret* (the analogue of the local
   file system's trust root).
2. Each user gets a derived secret, ``HMAC(service_secret, user)`` --
   per-user, deterministic, never stored.
3. A bearer token is ``sv1.<user>.<expires_at>.<signature>`` where the
   signature is ``HMAC(user_secret, "sv1.<user>.<expires_at>")``.

Verification recomputes the signature from the presented user name and
compares with :func:`repro.chirp.auth.secrets_equal` (constant time),
so a token minted under a different service secret -- or for a
different user -- is indistinguishable from garbage: ``TOKEN_INVALID``.
The authenticated user name is what the executor writes into each
simulated job's ``owner`` ClassAd attribute, which is exactly the
identity the matchmaker's fair share keys off -- multi-tenant fair
share flows from the token, not from anything the client claims in a
request body.

Wall-clock time exists only up here at the edge: ``verify_token`` takes
``now`` explicitly and the deterministic core below never sees it.
"""

from __future__ import annotations

import hashlib
import hmac
import re

from repro.boundary import AuthError, BadRequest
from repro.chirp.auth import secrets_equal

__all__ = [
    "TOKEN_VERSION",
    "bearer_user",
    "derive_user_secret",
    "mint_token",
    "verify_token",
]

TOKEN_VERSION = "sv1"

#: User names are tenant identifiers and ClassAd ``owner`` values; keep
#: them to a shell- and ad-safe charset.  Dots are allowed (token
#: parsing splits from the right), colons and whitespace are not.
_USER_RE = re.compile(r"^[a-z0-9][a-z0-9_.-]{0,63}$")


def derive_user_secret(service_secret: str, user: str) -> str:
    """The per-user secret: ``HMAC(service_secret, user)``, hex.

    Deterministic and never persisted -- the store holds no credential
    material, so there is nothing to leak from a copied database.
    """
    return hmac.new(
        ("service:" + service_secret).encode(),
        ("user:" + user).encode(),
        hashlib.sha256,
    ).hexdigest()


def _signature(service_secret: str, user: str, expires_at: int) -> str:
    payload = f"{TOKEN_VERSION}.{user}.{expires_at}"
    return hmac.new(
        derive_user_secret(service_secret, user).encode(),
        payload.encode(),
        hashlib.sha256,
    ).hexdigest()


def mint_token(service_secret: str, user: str, expires_at: int) -> str:
    """Mint a bearer token for *user* valid until *expires_at* (unix s)."""
    if not _USER_RE.match(user):
        raise BadRequest(
            f"invalid user name {user!r}: want lowercase [a-z0-9][a-z0-9_.-]*, "
            f"at most 64 characters"
        )
    expires_at = int(expires_at)
    return f"{TOKEN_VERSION}.{user}.{expires_at}.{_signature(service_secret, user, expires_at)}"


def verify_token(service_secret: str, token: str, now: float) -> str:
    """Verify *token*; return the authenticated user name.

    Raises :class:`AuthError` with code ``TOKEN_INVALID`` for anything
    structurally or cryptographically wrong (garbled, truncated, wrong
    user, wrong service secret) and ``TOKEN_EXPIRED`` only once the
    signature itself has checked out.
    """
    invalid = AuthError("bearer token is not valid", code="TOKEN_INVALID")
    head, _, signature = token.rpartition(".")
    head, _, expires_text = head.rpartition(".")
    version, _, user = head.partition(".")
    if version != TOKEN_VERSION or not _USER_RE.match(user):
        raise invalid
    try:
        expires_at = int(expires_text)
    except ValueError:
        raise invalid from None
    if not secrets_equal(signature, _signature(service_secret, user, expires_at)):
        raise invalid
    if now > expires_at:
        raise AuthError(
            f"bearer token for {user!r} expired at {expires_at}", code="TOKEN_EXPIRED"
        )
    return user


def bearer_user(service_secret: str, authorization: str | None, now: float) -> str:
    """Authenticate an ``Authorization`` header; return the user name."""
    if not authorization:
        raise AuthError(
            "missing Authorization header; send 'Authorization: Bearer <token>'",
            code="UNAUTHENTICATED",
        )
    scheme, _, token = authorization.partition(" ")
    if scheme.lower() != "bearer" or not token.strip():
        raise AuthError(
            "malformed Authorization header; want 'Bearer <token>'",
            code="TOKEN_INVALID",
        )
    return verify_token(service_secret, token.strip(), now)

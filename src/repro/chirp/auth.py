"""Shared-secret authentication through the local file system.

    "The library authenticates itself to the starter by presenting a
    shared secret revealed to it through the local file system.  Thus,
    the connection is secure to the same degree as the local system."
"""

from __future__ import annotations

import hashlib
import hmac

from repro.sim.filesystem import LocalFileSystem

__all__ = [
    "SECRET_FILENAME",
    "generate_secret",
    "place_secret",
    "secrets_equal",
]

SECRET_FILENAME = "chirp.secret"


def generate_secret(seed_material: str) -> str:
    """Derive a per-execution secret from stable *seed_material*.

    Deterministic on purpose: two runs of the same experiment produce the
    same secrets, keeping traces comparable.
    """
    return hashlib.sha256(("chirp:" + seed_material).encode()).hexdigest()[:32]


def secrets_equal(presented: str, expected: str) -> bool:
    """Constant-time equality for shared secrets and token signatures.

    Wraps :func:`hmac.compare_digest` so comparison time leaks nothing
    about how much of a guessed secret matched.  Used by the Chirp
    proxy's AUTH check and by :mod:`repro.service.auth`'s bearer-token
    verification; both sides must route secret comparison through here
    rather than ``==``.
    """
    return hmac.compare_digest(presented.encode(), expected.encode())


def place_secret(scratch: LocalFileSystem, scratch_dir: str, secret: str) -> str:
    """The starter writes the secret into the job's scratch directory."""
    path = f"{scratch_dir}/{SECRET_FILENAME}"
    scratch.write_file(path, secret.encode())
    return path

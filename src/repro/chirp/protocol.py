"""The Chirp wire protocol.

Chirp is deliberately simple: whole-file reads and writes, each
carrying the shared secret, each answered with one reply whose ``code``
comes from a *finite* set -- the protocol itself honours Principle 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ChirpCode", "ChirpReply", "ChirpRequest"]


class ChirpCode(enum.Enum):
    """The complete set of Chirp result codes."""

    OK = "OK"
    # Errors within the I/O contract -- the program's own business:
    NOT_FOUND = "NOT_FOUND"
    NOT_AUTHORIZED = "NOT_AUTHORIZED"
    NO_SPACE = "NO_SPACE"
    # Errors of the surrounding machinery:
    AUTH_FAILED = "AUTH_FAILED"  # bad shared secret (proxy-level)
    INVALID_REQUEST = "INVALID_REQUEST"
    SERVER_DOWN = "SERVER_DOWN"  # shadow unreachable / channel broken
    TIMED_OUT = "TIMED_OUT"  # shadow silent (partition, hard-mount hang)
    CREDENTIAL_EXPIRED = "CREDENTIAL_EXPIRED"  # shadow's GSI/Kerberos ticket
    BAD_FD = "BAD_FD"



@dataclass(frozen=True)
class ChirpRequest:
    op: str  # "read" | "write"
    path: str
    data: bytes = b""
    secret: str = ""


@dataclass(frozen=True)
class ChirpReply:
    code: ChirpCode
    data: bytes = b""

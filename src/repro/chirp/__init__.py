"""The Chirp I/O proxy path (paper §2.2, Figure 2).

    "This library does not communicate directly with any storage
    resource, but instead calls a proxy in the starter via a simple
    protocol called Chirp.  ...  The library authenticates itself to the
    starter by presenting a shared secret revealed to it through the
    local file system."

- :mod:`repro.chirp.protocol` -- the wire protocol and its finite result
  codes;
- :mod:`repro.chirp.auth` -- shared-secret establishment via the scratch
  file system;
- :mod:`repro.chirp.proxy` -- the starter-side proxy forwarding to the
  shadow's RPC server;
- :mod:`repro.chirp.client` -- the job-side Java I/O library, in naive
  (generic-interface) and scoped (finite-interface, escaping-error)
  modes.
"""

from repro.chirp.auth import generate_secret, place_secret
from repro.chirp.client import CondorIoLibrary, LocalIoLibrary
from repro.chirp.protocol import ChirpCode, ChirpReply, ChirpRequest
from repro.chirp.proxy import ChirpProxy

__all__ = [
    "ChirpCode",
    "ChirpProxy",
    "ChirpReply",
    "ChirpRequest",
    "CondorIoLibrary",
    "LocalIoLibrary",
    "generate_secret",
    "place_secret",
]

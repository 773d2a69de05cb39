"""A re-export shim; see :mod:`repro.bench.compare`."""

"""The engine's elementary kernels (see :mod:`repro.backends.base`)."""

from __future__ import annotations

from repro.backends.base import KERNELS, KernelBackend, resolve_backend_name

__all__ = ["KERNELS", "KernelBackend", "resolve_backend_name"]

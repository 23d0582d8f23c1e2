"""Internal-memory management (the §5.1 buffer partition)."""

from .pool import BufferPool

__all__ = ["BufferPool"]

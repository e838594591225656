"""Compiled-kernel cache of the columnar apply path.

The closures themselves come from the one expression compiler,
:mod:`repro.sql.compiler`.  :class:`KernelCache` keys them by the plan
fingerprint plus ``(table, kind, view)`` -- the window memo seam of
``integrate_batched`` -- so repeated windows over the same certified plan
set reuse closures instead of recompiling.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from ..sql.compiler import CompileBarrier


class KernelCache:
    """Compiled-kernel cache over the ``(fingerprint, table, kind, view)``
    key space of the batched-apply memo seam.

    One instance lives on the integrator's columnar applier, so repeated
    windows over the same certified plan set (same fingerprint) reuse
    closures across calls instead of recompiling per window.
    """

    def __init__(self) -> None:
        self._kernels: dict[Hashable, Any] = {}
        self.compiles = 0
        self.hits = 0
        self.barriers = 0

    def get(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached kernel for ``key``, compiling via ``factory`` once.

        A :class:`CompileBarrier` from the factory is cached too (as the
        barrier itself) so the row-path routing decision is also made
        only once per key.
        """
        try:
            kernel = self._kernels[key]
        except KeyError:
            self.compiles += 1
            try:
                kernel = factory()
            except CompileBarrier as barrier:
                kernel = barrier
            self._kernels[key] = kernel
        else:
            self.hits += 1
        if isinstance(kernel, CompileBarrier):
            self.barriers += 1
            raise kernel
        return kernel

    def __len__(self) -> int:
        return len(self._kernels)

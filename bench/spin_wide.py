"""The spin-wide workload: the spin case past the catalog, both routes.

Builds the bundle route and the theta route of the spin case at dimensions
24, 28 and 32, order 3, compares them through ``verifier.assemble_Q`` and
prints each top-degree series.  ``CaseSpec`` accepts only the catalog
dimensions, so ``assemble_Q`` gets a spec object with the same fields.

Run from the repository root with ``PYTHONPATH=src python bench/spin_wide.py``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from anomaly.algebra import pontryagin_table
from anomaly import verifier

DIMS = (24, 28, 32)
ORDER = 3


@dataclass(frozen=True)
class WideSpec:
    """The fields of ``verifier.CaseSpec``, without its catalog check."""

    case: str
    dim: int
    qcap: int = 3
    route: str = "both"
    impose: bool = True

    @property
    def weight(self) -> int:
        return self.dim // 2

    def table(self):
        return pontryagin_table(self.dim)


def main(argv=None) -> int:
    for dim in DIMS:
        top = verifier.assemble_Q(WideSpec("spin", dim, ORDER))
        print(f"spin dim {dim} order {ORDER}: {top.render()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

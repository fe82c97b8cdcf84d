"""Parameter-sweep helpers for the benchmark harness.

The paper's evaluation is a dense grid over (model, hardware, framework,
batch size, input length, output length).  :class:`Sweep` expresses such a
grid declaratively and iterates it as dictionaries.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = ["Sweep", "paper_batch_sweep", "paper_length_sweep"]


@dataclass
class Sweep:
    """Cartesian product over named axes.

    Example
    -------
    >>> sweep = Sweep({"batch_size": [1, 16], "length": [128, 2048]})
    >>> len(list(sweep))
    4
    """

    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        for name, values in self.axes.items():
            if len(values) == 0:
                raise ValueError(f"axis {name!r} has no values")

    def __iter__(self) -> Iterator[dict[str, Any]]:
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def extend(self, **axes: Sequence[Any]) -> "Sweep":
        """Return a sweep with additional axes appended."""
        merged = dict(self.axes)
        for name, values in axes.items():
            if name in merged:
                raise ValueError(f"axis {name!r} already present")
            merged[name] = values
        return Sweep(merged)


def paper_batch_sweep(
    lengths: Sequence[int] = (128, 256, 512, 1024, 2048),
    batch_sizes: Sequence[int] = (1, 16, 32, 64),
) -> Sweep:
    """The paper's standard sweep: equal input/output lengths x batch sizes."""
    return Sweep({"length": list(lengths), "batch_size": list(batch_sizes)})


def paper_length_sweep(
    input_lengths: Sequence[int] = (128, 256, 512, 1024, 2048),
    output_lengths: Sequence[int] = (128, 256, 512, 1024, 2048),
    batch_size: int = 16,
) -> Sweep:
    """Blended-token sweep (Fig. 1b): input length x output length grid."""
    return Sweep(
        {
            "input_tokens": list(input_lengths),
            "output_tokens": list(output_lengths),
            "batch_size": [batch_size],
        }
    )

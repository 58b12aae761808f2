"""Flat CSR rows of a bulk-parsed graph, and the numpy round over them.

CSR (compressed sparse rows) keeps a graph's arcs in flat arrays: the arcs
of node ``i`` are positions ``indptr[i]:indptr[i + 1]`` of ``targets`` and
of ``ratios``. The bulk parse in :mod:`chargediff.graph` has these arrays
already, so the graphs it builds keep them, in place of per-node rows until
a row is read, and :func:`chargediff.diffusion.step` plays their rounds with
:meth:`Csr.play`.
Every other graph keeps the dict round. Only the bulk parse imports this
module, and its functions use the numpy that the bulk parse loaded; so a
process that parses only small files compiles and loads neither.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True, eq=False)
class Csr:
    """A graph's rows as flat arrays, and the scratch vector its rounds fold in.

    ``indptr`` holds the n + 1 row starts, and ``targets`` each arc's target,
    ascending within a row; both are int64. ``ratios`` holds each arc's
    ratio, float64 with the bits of ``Graph.out_ratios``. It is None for
    unweighted text, where every row is uniform and an arc's ratio is
    ``1.0 / degree``, computed per sender in the round.

    A graph from the bulk parse holds these arrays in place of its per-node
    rows, and builds the rows from ``targets`` and its degrees when a row is
    first read: ``simulate`` and ``compare`` read rows, ``knn`` and
    ``bounds`` do not. Weighted text builds its weight and ratio rows at
    parse time, since ``ratios`` takes its bits from them.

    ``scratch`` is n float64 that all hold -0.0 between rounds. A round
    writes the charges of its touched ids into it, folds receipts there and
    writes -0.0 back over the same ids, so it costs O(touched), and one
    query's round leaves nothing for the next. So a graph plays one round at
    a time: threads that query one graph at once need a copy each.
    """

    indptr: Any
    targets: Any
    ratios: Any
    scratch: Any

    @classmethod
    def of(cls, degrees: Any, targets: Any, out_ratios: Sequence[Sequence[float]] | None) -> Csr:
        """The arrays of rows with these degrees and targets; ratios from ``out_ratios`` unless None."""
        import numpy as np

        indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        ratios = None
        if out_ratios is not None:
            flat = itertools.chain.from_iterable(out_ratios)
            ratios = np.fromiter(flat, dtype=np.float64, count=len(targets))
        return cls(indptr, targets, ratios, np.full(len(degrees), -0.0))

    def senders(self, ids: Any) -> Any:
        """The ids, in order, whose rows have arcs."""
        return ids[self.indptr[ids + 1] > self.indptr[ids]]

    def loop_count(self) -> int:
        """How many arcs point back at their own row: the self-loops."""
        import numpy as np

        rows = np.arange(len(self.indptr) - 1).repeat(np.diff(self.indptr))
        return int(np.count_nonzero(self.targets == rows))

    def play(
        self,
        x: Mapping[int, float],
        senders: Any,
        split: tuple[float, float, float],
        epsilon: float,
    ) -> tuple[Charges, Any, list[int]]:
        """One round from charges ``x``: ``(charges, frontier, risen)`` one round later.

        ``senders`` are the round's emitters, ascending, and ``split`` the
        variant's ``(floor, keep, give)``; a sender keeps ``floor + keep *
        (x - floor)`` and sends ``give * (x - floor)``, or keeps x and sends
        nothing when the kept share is not below x, as
        :func:`chargediff.diffusion.splitter` splits. The frontier is the ids
        above ``epsilon`` afterwards, ascending; ``risen`` the ids a receipt
        lifted from at most ``epsilon`` to above it, ascending.

        Each step keeps the dict round's bits:

        - Each receipt is ``sent * ratio``, with ``ratio = 1.0 / degree`` for a
          row of unweighted text, and a zero receipt is dropped, so it creates
          no key.
        - The arcs of the senders are gathered in sender order with
          ``np.repeat`` and one ``arange``, and ``np.add.at`` adds receipts in
          index order, so each receiver adds its receipts to what it held (or
          kept, if it sent) in ascending sender order.
        - A receiver is new when its scratch entry still holds -0.0: ``-0.0 +
          a`` is ``a``, as ``0.0 + a`` is, and the sign tells it from a held
          0.0.

        The work is a few numpy calls over the pushed arcs and over the
        touched ids, and a sort of the new receivers.
        """
        import numpy as np

        if not isinstance(x, Charges):
            x = Charges.of(x)
        ids = x.ids
        scratch, indptr = self.scratch, self.indptr
        floor, keep, give = split
        try:
            scratch[ids] = x.vals
            senders = np.asarray(senders, dtype=np.int64)
            held = scratch[senders]
            above = held - floor
            kept = floor + keep * above
            sent = give * above
            whole = kept >= held
            # np.count_nonzero is the cheapest of numpy's tests for a True.
            if np.count_nonzero(whole):
                kept[whole] = held[whole]
                sent[whole] = 0.0
            scratch[senders] = kept

            starts = indptr[senders]
            counts = indptr[senders + 1] - starts
            if self.ratios is None:
                # Each arc of a row of unweighted text receives the same share.
                sent = sent * (1.0 / counts)
            live = sent != 0.0
            if np.count_nonzero(live) < len(live):
                starts, counts, sent = starts[live], counts[live], sent[live]
            # Gathered arc k of sender s is arc k - (ends[s] - counts[s]) of its row.
            ends = counts.cumsum()
            arcs = np.arange(ends[-1] if len(ends) else 0) + (starts - (ends - counts)).repeat(counts)
            amounts = sent.repeat(counts)
            if self.ratios is not None:
                amounts *= self.ratios[arcs]
                live = amounts != 0.0
                if np.count_nonzero(live) < len(live):
                    arcs, amounts = arcs[live], amounts[live]
            targets = self.targets[arcs]

            fresh = targets[np.signbit(scratch[targets])]
            if len(fresh):
                fresh.sort()
                new = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
                # Two ascending runs: the stable sort (timsort) merges them in linear time.
                ids = np.concatenate((ids, new))
                ids.sort(kind="stable")
            before = scratch[ids]
            np.add.at(scratch, targets, amounts)
            vals = scratch[ids]
            scratch[ids] = -0.0
        except BaseException:
            # A round cut short leaves no charge behind for the next one.
            scratch.fill(-0.0)
            raise
        hot = vals > epsilon
        risen = ids[hot & (before <= epsilon)]
        return Charges(ids, vals), ids[hot], risen.tolist()


class Charges(Mapping):
    """A charge vector as arrays: ``ids`` ascending (int64), ``vals`` the charge of each (float64).

    It holds the ids that the dict round holds as keys: every id that ever
    held or received charge, zero charges included. ``==`` compares the
    arrays in O(len) and, like dict ``==``, by value, so the run loop's
    repeat test costs O(touched). Read as a mapping, it gives Python ints
    and floats, in ascending id order.
    """

    __slots__ = ("ids", "vals")

    def __init__(self, ids: Any, vals: Any) -> None:
        self.ids = ids
        self.vals = vals

    @classmethod
    def of(cls, x: Mapping[int, float]) -> Charges:
        """The charges of a mapping, such as a dict state's ``x``."""
        import numpy as np

        keys = sorted(x)
        return cls(np.array(keys, dtype=np.int64), np.array([x[i] for i in keys], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __getitem__(self, i: int) -> float:
        k = int(self.ids.searchsorted(i))
        if k < len(self.ids) and self.ids[k] == i:
            return float(self.vals[k])
        raise KeyError(i)

    def items(self) -> list[tuple[int, float]]:
        return list(zip(self.ids.tolist(), self.vals.tolist()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Charges):
            return (
                self.ids.shape == other.ids.shape
                and bool((self.ids == other.ids).all())
                and bool((self.vals == other.vals).all())
            )
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"Charges({dict(self.items())!r})"

    def above(self, epsilon: float) -> Any:
        """Ids whose charge is above ``epsilon``, ascending."""
        return self.ids[self.vals > epsilon]

    def excess(self, epsilon: float) -> float:
        """Sum of ``x - epsilon`` over the charges above ``epsilon``, in ascending id order.

        ``cumsum`` adds left to right, as ``sum()`` does on Python 3.11, so
        the bits equal the dict state's sum; ``np.sum`` adds pairwise and
        would change them.
        """
        over = self.vals[self.vals > epsilon] - epsilon
        return float(over.cumsum()[-1]) if len(over) else 0.0

    def positive(self) -> dict[int, float]:
        """The charges above 0.0 as a dict, in ascending id order."""
        held = self.vals > 0.0
        return dict(zip(self.ids[held].tolist(), self.vals[held].tolist()))

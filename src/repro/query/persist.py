"""The query index over a durable store: rebuilt from the journal.

The journal is the record, and the index is a view of it.  Nothing
about the index is written to disk: a checkpoint writes the journal and
its seal, and :func:`resume_index` (which ``repro query`` calls)
rebuilds the index from the decoded journal.  Rebuilding measured
faster than reloading a stored copy of the index, which was about half
of a store's bytes.  The rebuild commits once per journal generation,
so its :meth:`~repro.query.index.ProvenanceIndex.summary` and
:attr:`~repro.query.index.ProvenanceIndex.generation_marks` equal those
of the live index the capture fed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from repro.query.index import ProvenanceIndex
from repro.storage.checkpoint import RecordView, collect_entries
from repro.storage.segments import DurableStore

__all__ = ["resume_index", "save_index"]


def save_index(
    store: Union[DurableStore, str, Path],
    index: ProvenanceIndex,
    generation: int,
) -> int:
    """The index's step of checkpoint ``generation``: commit, write nothing.

    The generation's deliveries become one index generation, matching
    the journal generation a rebuild commits.  Returns the number of
    deliveries absorbed.  The name stays until the full-stack benchmark,
    which times this step by name, is changed.
    """

    return index.commit()


def resume_index(
    store: Union[DurableStore, str, Path],
    record: Optional[RecordView] = None,
) -> Tuple[ProvenanceIndex, dict]:
    """An index over the store's full record, rebuilt from its journal.

    One commit per decoded journal generation (``record.segments``).
    Returns ``(index, info)``; ``info`` reports the deliveries and the
    indexing work the rebuild spent, which cover the whole record.
    """

    if record is None:
        if not isinstance(store, DurableStore):
            store = DurableStore(store)
        record = collect_entries(store)
    index = ProvenanceIndex()
    start = 0
    for _, end in record.segments:
        index.extend_trace(record.entries[start:end])
        start = end
    return index, {
        "extended_deliveries": index.delivered,
        "extended_work": index.events_indexed,
    }

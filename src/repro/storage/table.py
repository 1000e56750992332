"""Tables: immutable paged storage over packed column vectors.

A table's rows are generated at ~1/1000 of the paper's real cardinality;
``row_weight`` records how many real rows each generated row represents so
that CPU charges (cycles x weight) and I/O charges (bytes x weight) match
paper-scale volumes.

Columns are packed once at load (:mod:`repro.storage.packed`: typed
arrays, dictionary codes, boxed lists only as the fallback), and pages are
:class:`~repro.storage.page.ColumnPage` views slicing them -- zero-copy
``memoryview`` slices for arrays, shared value tables for dictionary
codes.  Row tuples decode lazily through the page cache when a row
consumer asks.  :meth:`Table.from_columns` builds a table straight from
column vectors (already-packed ones are kept as-is) -- the zero-copy path
the shard tier uses to hand out fact partitions.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.storage import packed as packedmod
from repro.storage.page import Page
from repro.storage.schema import Schema

#: Generated tuples per page.  Real pages are 32 KB; this is the *batch*
#: granularity of the simulation (one generated page stands for the run of
#: real 32 KB pages holding `TUPLES_PER_PAGE * row_weight` rows).
TUPLES_PER_PAGE = 64


class Table:
    """An immutable, paged relational table."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Sequence[tuple],
        row_weight: float = 1.0,
        tuples_per_page: int = TUPLES_PER_PAGE,
    ):
        _check_layout(row_weight, tuples_per_page)
        for row in rows[:1]:
            if len(row) != len(schema):
                raise ValueError(
                    f"row arity {len(row)} does not match schema arity {len(schema)}"
                )
        columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in schema.columns]
        self._build(name, schema, columns, len(rows), row_weight, tuples_per_page)

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        row_weight: float = 1.0,
        tuples_per_page: int = TUPLES_PER_PAGE,
    ) -> "Table":
        """Build a table from per-column vectors without materializing row
        tuples.  Page structure, weights and byte accounting are identical
        to the row constructor's, so simulated charges do not depend on
        which way a table was built.  Already-packed input vectors (shard
        partitions slicing/gathering a packed parent) are kept as-is."""
        if len(columns) != len(schema):
            raise ValueError(
                f"column count {len(columns)} does not match schema arity {len(schema)}"
            )
        _check_layout(row_weight, tuples_per_page)
        n = len(columns[0]) if columns else 0
        for col in columns:
            if len(col) != n:
                raise ValueError("ragged columns")
        table = cls.__new__(cls)
        table._build(name, schema, columns, n, row_weight, tuples_per_page)
        return table

    def _build(
        self,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        n: int,
        row_weight: float,
        tuples_per_page: int,
    ) -> None:
        """Pack the column vectors and slice them into pages (a C-level
        operation per column per page)."""
        self.name = name
        self.schema = schema
        self.row_weight = float(row_weight)
        self.tuples_per_page = tuples_per_page
        self.num_rows = n
        cols = self._cols = packedmod.pack_columns(columns, schema)
        self.pages: list[Page] = [
            Page(
                table_name=name,
                index=i,
                rows=None,
                weight=self.row_weight,
                real_bytes=(min(start + tuples_per_page, n) - start)
                * self.row_weight
                * schema.row_bytes,
                columns=tuple(col[start : start + tuples_per_page] for col in cols),
            )
            for i, start in enumerate(range(0, n, tuples_per_page))
        ]

    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def real_rows(self) -> float:
        """Number of real rows this table represents."""
        return self.num_rows * self.row_weight

    @property
    def real_bytes(self) -> float:
        """Real on-disk size in bytes."""
        return sum(p.real_bytes for p in self.pages)

    def page(self, index: int) -> Page:
        return self.pages[index]

    def iter_rows(self) -> Iterator[tuple]:
        for p in self.pages:
            yield from p.rows

    def columns(self) -> tuple[Sequence[Any], ...]:
        """Full-table packed column vectors.  Zero-copy shard partitioning
        slices and gathers these."""
        return self._cols

    # ------------------------------------------------------------------
    def memory_footprint(self) -> dict[str, Any]:
        """Resident bytes of the packed columns, counted *honestly* --
        array buffers, dictionary code bytes, value tables and their boxed
        numeric entries, not just the outer containers (string payloads
        excluded: shared references).  ``column_layouts`` breaks them down
        by representation."""
        layouts = {"dict": 0, "array": 0, "boxed": 0}
        columns_bytes = 0
        for col, cd in zip(self._cols, self.schema.columns):
            columns_bytes += packedmod.column_nbytes(col, cd.kind)
            t = type(col)
            if t is packedmod.DictColumn:
                layouts["dict"] += 1
            elif t is packedmod.PackedNumeric:
                layouts["array"] += 1
            else:
                layouts["boxed"] += 1
        return {"columns_bytes": columns_bytes, "column_layouts": layouts}

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Table {self.name} rows={self.num_rows} (x{self.row_weight:g} real)"
            f" pages={self.num_pages}>"
        )


def _check_layout(row_weight: float, tuples_per_page: int) -> None:
    if row_weight <= 0:
        raise ValueError("row_weight must be positive")
    if tuples_per_page < 1:
        raise ValueError("tuples_per_page must be >= 1")

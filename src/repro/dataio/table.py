"""A lightweight column-oriented table for snapshot data.

The reproduction cannot rely on pandas (not installed in the offline
environment), so this module provides the small slice of table functionality
the algorithm needs:

* string-typed cells organised in :class:`Column` objects for fast projection,
* stable integer row identifiers (rows never move once added),
* zero-copy column views with cached per-column statistics,
* projections, row/column selection, filtering, and value statistics,
* deterministic equality and hashing of row tuples for blocking.

Rows are exposed as plain ``tuple[str, ...]`` objects in schema order, which
keeps blocking indices cheap to build and hash.  Columns are exposed as
:class:`Column` — a ``list`` subclass, so all positional access stays as fast
as raw lists — which lazily caches its value histogram and inferred type and
invalidates both on mutation.  Freezing a table (:meth:`Table.freeze`) forbids
further mutation, which lets projections share column storage outright.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .schema import Schema, SchemaError

Row = Tuple[str, ...]


class TableError(ValueError):
    """Raised for malformed table operations (ragged rows, bad indices, ...)."""


class Column(List[str]):
    """One typed column of cells: a ``list`` with cached derived data.

    The cache (value histogram, inferred kind, missing/numeric counts) is
    computed lazily on first use and dropped whenever the column is mutated,
    so a column that is still being built behaves exactly like a plain list
    while a finished column answers statistics queries in O(1) after the
    first call.
    """

    __slots__ = ("_counts", "_kind", "_missing", "_numeric", "_dictionary")

    #: Inferred column kinds.
    KIND_EMPTY = "empty"
    KIND_NUMERIC = "numeric"
    KIND_TEXT = "text"

    def __init__(self, cells: Iterable[str] = ()):
        super().__init__(cells)
        self._invalidate()

    def _invalidate(self) -> None:
        self._counts: Optional[Counter] = None
        self._kind: Optional[str] = None
        self._missing: Optional[int] = None
        self._numeric: Optional[int] = None
        self._dictionary: Optional[Tuple[List[int], Dict[str, int]]] = None

    # -- mutating list methods drop the cache --------------------------- #
    def append(self, cell: str) -> None:
        if self._counts is not None or self._kind is not None or self._dictionary is not None:
            self._invalidate()
        super().append(cell)

    def extend(self, cells: Iterable[str]) -> None:
        if self._counts is not None or self._kind is not None or self._dictionary is not None:
            self._invalidate()
        super().extend(cells)

    def insert(self, index: int, cell: str) -> None:
        self._invalidate()
        super().insert(index, cell)

    def __setitem__(self, index, cell) -> None:
        self._invalidate()
        super().__setitem__(index, cell)

    def __delitem__(self, index) -> None:
        self._invalidate()
        super().__delitem__(index)

    def __iadd__(self, cells):
        self._invalidate()
        return super().__iadd__(cells)

    def clear(self) -> None:
        self._invalidate()
        super().clear()

    def pop(self, index: int = -1) -> str:
        self._invalidate()
        return super().pop(index)

    def __imul__(self, factor):
        self._invalidate()
        return super().__imul__(factor)

    def remove(self, cell: str) -> None:
        self._invalidate()
        super().remove(cell)

    def __reduce__(self):
        # Rebuild through __init__ so unpickling does not call the overridden
        # mutators before the slot state exists; the cache is recomputed
        # lazily on the copy.
        return (self.__class__, (list(self),))

    # -- cached derived data -------------------------------------------- #
    def value_counts(self) -> Counter:
        """The column's value histogram (cached; treat as read-only)."""
        if self._counts is None:
            self._counts = Counter(self)
        return self._counts

    def distinct_count(self) -> int:
        """Number of distinct cell values."""
        return len(self.value_counts())

    def dictionary(self) -> Tuple[List[int], Dict[str, int]]:
        """Dense dictionary encoding of the column (cached; treat as read-only).

        Returns a ``(codes, codebook)`` pair: ``codebook`` maps each distinct
        value to a dense integer code in first-occurrence order, and ``codes``
        holds one code per cell, so ``codes[i]`` identifies ``self[i]``.
        Downstream consumers (blocking, candidate ranking) remap the
        column-local codes into a shared per-attribute code space once and
        then work on integers instead of strings.
        """
        if self._dictionary is None:
            codebook: Dict[str, int] = {}
            codes: List[int] = []
            codebook_get = codebook.get
            append = codes.append
            for cell in self:
                code = codebook_get(cell)
                if code is None:
                    codebook[cell] = code = len(codebook)
                append(code)
            self._dictionary = (codes, codebook)
        return self._dictionary

    def _classify(self) -> None:
        from . import values as value_helpers

        counts = self.value_counts()
        missing = numeric = 0
        for cell, count in counts.items():
            if value_helpers.is_missing(cell):
                missing += count
            if value_helpers.is_numeric(cell):
                numeric += count
        self._missing = missing
        self._numeric = numeric
        present = len(self) - missing
        if len(self) == 0 or present == 0:
            self._kind = self.KIND_EMPTY
        elif numeric >= present:
            self._kind = self.KIND_NUMERIC
        else:
            self._kind = self.KIND_TEXT

    def missing_count(self) -> int:
        """Number of cells holding a missing-value token."""
        if self._missing is None:
            self._classify()
        return self._missing

    def numeric_count(self) -> int:
        """Number of cells that parse as numbers."""
        if self._numeric is None:
            self._classify()
        return self._numeric

    @property
    def kind(self) -> str:
        """Inferred type: ``"numeric"`` when every present cell parses as a
        number, ``"empty"`` when no cell is present, ``"text"`` otherwise."""
        if self._kind is None:
            self._classify()
        return self._kind

    def __repr__(self) -> str:
        return f"Column({len(self)} cells, kind={self.kind!r})"


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of one column, used by the instance generator and
    the overlap matcher."""

    attribute: str
    total: int
    distinct: int
    missing: int
    numeric: int

    @property
    def distinct_ratio(self) -> float:
        """Fraction of distinct values among all cells (0 for empty columns)."""
        return self.distinct / self.total if self.total else 0.0

    @property
    def numeric_ratio(self) -> float:
        """Fraction of cells that parse as numbers."""
        return self.numeric / self.total if self.total else 0.0

    @property
    def is_empty(self) -> bool:
        """True when every cell of the column is a missing token."""
        return self.total > 0 and self.missing == self.total


class Table:
    """An immutable-by-convention, column-oriented table of string cells.

    Parameters
    ----------
    schema:
        The attribute tuple shared by every row.
    rows:
        Iterable of row tuples/lists; each must have exactly ``len(schema)``
        cells.  Cells are coerced to ``str``.
    """

    __slots__ = ("_schema", "_columns", "_n_rows", "_frozen", "_fingerprint")

    def __init__(self, schema: Schema, rows: Iterable[Sequence[object]] = ()):
        self._schema = schema
        self._columns: List[Column] = [Column() for _ in schema]
        self._n_rows = 0
        self._frozen = False
        self._fingerprint: Optional[bytes] = None
        self.extend(rows)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dicts(cls, schema: Schema, records: Iterable[Mapping[str, object]],
                   default: str = "") -> "Table":
        """Build a table from mappings keyed by attribute name."""
        rows = []
        for record in records:
            rows.append([str(record.get(name, default)) for name in schema])
        return cls(schema, rows)

    @classmethod
    def from_columns(cls, schema: Schema, columns: Mapping[str, Sequence[object]]) -> "Table":
        """Build a table from per-attribute column sequences of equal length."""
        lengths = {len(columns[name]) for name in schema if name in columns}
        missing = [name for name in schema if name not in columns]
        if missing:
            raise TableError(f"missing columns: {missing}")
        if len(lengths) > 1:
            raise TableError(f"columns have differing lengths: {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0
        rows = (
            [columns[name][i] for name in schema]
            for i in range(n_rows)
        )
        return cls(schema, rows)

    def copy(self) -> "Table":
        """A deep copy sharing no column storage with the original."""
        clone = Table(self._schema)
        clone._columns = [Column(column) for column in self._columns]
        clone._n_rows = self._n_rows
        return clone

    # ------------------------------------------------------------------ #
    # freezing
    # ------------------------------------------------------------------ #
    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` was called; frozen tables reject mutation."""
        return self._frozen

    def freeze(self) -> "Table":
        """Forbid further mutation (idempotent; returns ``self``).

        Freezing is what makes zero-copy column sharing safe: projections of
        a frozen table reference the original :class:`Column` objects instead
        of copying them, and callers holding a :meth:`column_view` know the
        storage can no longer change underneath them.
        """
        self._frozen = True
        return self

    def fingerprint(self) -> bytes:
        """SHA-256 of one ASCII-escaped JSON encoding of the schema and the
        columns; the nesting keeps cell boundaries and the table's shape.
        Computed once for a frozen table, which cannot change."""
        if self._fingerprint is not None:
            return self._fingerprint
        # list() decodes lazily loaded columns: the JSON encoder would read
        # their raw (still empty) list storage instead.
        encoded = json.dumps(
            [list(self._schema), [list(column) for column in self._columns]],
            ensure_ascii=True, separators=(",", ":"),
        )
        fingerprint = hashlib.sha256(encoded.encode("ascii")).digest()
        if self._frozen:
            self._fingerprint = fingerprint
        return fingerprint

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self._schema)

    def __len__(self) -> int:
        return self._n_rows

    def __bool__(self) -> bool:
        return self._n_rows > 0

    def __iter__(self) -> Iterator[Row]:
        for index in range(self._n_rows):
            yield self.row(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._schema == other._schema and self._columns == other._columns

    def __repr__(self) -> str:
        return f"Table({self._n_rows} rows x {self.n_columns} columns: {list(self._schema)})"

    # ------------------------------------------------------------------ #
    # mutation (used only while building snapshots)
    # ------------------------------------------------------------------ #
    def append(self, row: Sequence[object]) -> int:
        """Append one row and return its row identifier (position)."""
        if self._frozen:
            raise TableError("cannot append to a frozen table")
        if len(row) != len(self._schema):
            raise TableError(
                f"row has {len(row)} cells but schema has {len(self._schema)} attributes"
            )
        for column, cell in zip(self._columns, row):
            column.append(str(cell))
        self._n_rows += 1
        return self._n_rows - 1

    def extend(self, rows: Iterable[Sequence[object]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def row(self, index: int) -> Row:
        """The row at *index* as a tuple of cells in schema order."""
        if not 0 <= index < self._n_rows:
            raise TableError(f"row index out of range: {index}")
        return tuple(column[index] for column in self._columns)

    def rows(self, indices: Optional[Iterable[int]] = None) -> List[Row]:
        """All rows, or the rows at *indices* (in that order)."""
        if indices is None:
            return [self.row(i) for i in range(self._n_rows)]
        return [self.row(i) for i in indices]

    def cell(self, index: int, attribute: str) -> str:
        """Single cell addressed by row index and attribute name."""
        position = self._schema.index_of(attribute)
        if not 0 <= index < self._n_rows:
            raise TableError(f"row index out of range: {index}")
        return self._columns[position][index]

    def column(self, attribute: str) -> List[str]:
        """A copy of the column named *attribute*."""
        return list(self._columns[self._schema.index_of(attribute)])

    def column_view(self, attribute: str) -> Column:
        """Zero-copy reference to the typed :class:`Column` storage.

        Read-only by convention (enforced once the table is frozen)."""
        return self._columns[self._schema.index_of(attribute)]

    def columns(self) -> Dict[str, Column]:
        """Zero-copy views of every column, keyed by attribute name."""
        return dict(zip(self._schema.attributes, self._columns))

    def row_dict(self, index: int) -> Dict[str, str]:
        """The row at *index* as an attribute-name keyed dict."""
        return dict(zip(self._schema.attributes, self.row(index)))

    # ------------------------------------------------------------------ #
    # relational-style operations
    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[str]) -> "Table":
        """A new table restricted to *attributes* (projection, keeps duplicates).

        On a frozen table this is zero-copy: the projection shares the frozen
        :class:`Column` objects (and their cached statistics) and is itself
        frozen.  Mutable tables still copy, as the projection must not change
        when the original grows.
        """
        sub_schema = self._schema.subset(attributes)
        positions = self._schema.positions_of(attributes)
        projected = Table(sub_schema)
        if self._frozen:
            projected._columns = [self._columns[p] for p in positions]
            projected._frozen = True
        else:
            projected._columns = [Column(self._columns[p]) for p in positions]
        projected._n_rows = self._n_rows
        return projected

    def select(self, predicate: Callable[[Row], bool]) -> "Table":
        """A new table containing the rows satisfying *predicate*."""
        keep = [index for index in range(self._n_rows) if predicate(self.row(index))]
        return self.take(keep)

    def take(self, indices: Sequence[int]) -> "Table":
        """A new table containing the rows at *indices*, in that order."""
        result = Table(self._schema)
        for position, column in enumerate(self._columns):
            result._columns[position] = Column(column[i] for i in indices)
        result._n_rows = len(indices)
        return result

    def drop_columns(self, attributes: Iterable[str]) -> "Table":
        """A new table with *attributes* removed."""
        drop = set(attributes)
        keep = [name for name in self._schema if name not in drop]
        if len(keep) == len(self._schema):
            unknown = [name for name in drop if name not in self._schema]
            if unknown:
                raise SchemaError(f"unknown attribute(s): {unknown}")
        return self.project(keep)

    def with_column(self, attribute: str, values: Sequence[object],
                    position: int | None = None) -> "Table":
        """A new table with an extra column *attribute* holding *values*."""
        if len(values) != self._n_rows:
            raise TableError(
                f"column has {len(values)} cells but table has {self._n_rows} rows"
            )
        new_schema = self._schema.extended(attribute, position)
        insert_at = len(self._schema) if position is None else position
        result = Table(new_schema)
        new_columns = [Column(column) for column in self._columns]
        new_columns.insert(insert_at, Column(str(value) for value in values))
        result._columns = new_columns
        result._n_rows = self._n_rows
        return result

    def map_column(self, attribute: str, function: Callable[[str], str]) -> "Table":
        """A new table with *function* applied to every cell of *attribute*."""
        position = self._schema.index_of(attribute)
        result = self.copy()
        result._columns[position] = Column(
            function(cell) for cell in result._columns[position]
        )
        return result

    def concat(self, other: "Table") -> "Table":
        """A new table with the rows of *other* appended (schemas must match)."""
        if other.schema != self._schema:
            raise TableError("cannot concatenate tables with different schemas")
        result = self.copy()
        for position in range(len(self._schema)):
            result._columns[position].extend(other._columns[position])
        result._n_rows += other._n_rows
        return result

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def value_counts(self, attribute: str) -> Counter:
        """Value histogram of one column (a copy of the cached histogram)."""
        return Counter(self.column_view(attribute).value_counts())

    def column_stats(self, attribute: str) -> ColumnStats:
        """Summary statistics of one column (served from the column's cache)."""
        column = self.column_view(attribute)
        return ColumnStats(
            attribute=attribute,
            total=len(column),
            distinct=column.distinct_count(),
            missing=column.missing_count(),
            numeric=column.numeric_count(),
        )

    def stats(self) -> Dict[str, ColumnStats]:
        """Per-attribute statistics keyed by attribute name."""
        return {name: self.column_stats(name) for name in self._schema}

    def to_dicts(self) -> List[Dict[str, str]]:
        """All rows as attribute-keyed dictionaries (convenience for tests)."""
        return [self.row_dict(index) for index in range(self._n_rows)]

    def head(self, n: int = 5) -> "Table":
        """The first *n* rows as a new table."""
        return self.take(list(range(min(n, self._n_rows))))

    def pretty(self, max_rows: int = 20) -> str:
        """A fixed-width textual rendering (for examples and debugging)."""
        rows = self.rows(range(min(max_rows, self._n_rows)))
        headers = list(self._schema)
        widths = [len(name) for name in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
        lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in rows)
        if self._n_rows > max_rows:
            lines.append(f"... ({self._n_rows - max_rows} more rows)")
        return "\n".join(lines)

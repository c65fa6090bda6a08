"""Storage substrate: types, schemas, NSM pages, files, buffer, indexes.

Public surface re-exported here; see DESIGN.md §3 for the inventory.
"""

from repro.storage.buffer import BufferManager, BufferStats
from repro.storage.btree import BPlusTree, KeyRange, build_index
from repro.storage.catalog import Catalog, ColumnStats, TableStats
from repro.storage.heapfile import DiskFile, HeapFile, MemoryFile
from repro.storage.page import HEADER_SIZE, PAGE_SIZE, Page
from repro.storage.schema import Column, Schema
from repro.storage.table import Table, table_from_rows
from repro.storage.types import (
    BOOL,
    DATE,
    DOUBLE,
    INT,
    DataType,
    char,
    date_to_ordinal,
    ordinal_to_date,
    type_from_sql,
    varchar,
)



def __getattr__(name: str):
    # The column store is numpy-backed; imported on first use so that
    # row-store-only processes do not load numpy (see repro/__init__.py).
    if name in ("ColumnTable", "from_rows", "from_table"):
        from repro.storage import dsm

        return getattr(dsm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BOOL",
    "BPlusTree",
    "BufferManager",
    "BufferStats",
    "Catalog",
    "Column",
    "ColumnStats",
    "ColumnTable",
    "DATE",
    "DOUBLE",
    "DataType",
    "DiskFile",
    "HEADER_SIZE",
    "HeapFile",
    "INT",
    "KeyRange",
    "MemoryFile",
    "PAGE_SIZE",
    "Page",
    "Schema",
    "Table",
    "TableStats",
    "build_index",
    "char",
    "date_to_ordinal",
    "from_rows",
    "from_table",
    "ordinal_to_date",
    "table_from_rows",
    "type_from_sql",
    "varchar",
]

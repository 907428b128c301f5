"""The one result key: a metamorphic oracle over transports and contents.

The key must not move with how the same data arrived (inline or by path,
the path's spelling, dict key order, the delimiter, execution hints, a
stripped budget), and must move with what determines the explanation (one
cell, how cells are split, the table's shape, the configuration, the
function pool).
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import ExplainBudget, ExplainRequest, ExplainSession, request_idempotency_key
from repro.core import ProblemInstance, identity_configuration
from repro.dataio import Schema, Table, to_csv_text
from repro.dataio.buffers import buffer_table

#: Cells that round-trip through CSV: separators, quotes, the unit separator
#: and non-ASCII text, but no line breaks.
cells = st.text(alphabet="ab ,;\"'\x1fé漢0", max_size=4)
schemas = st.lists(st.text(alphabet="xyz", min_size=1, max_size=2),
                   min_size=1, max_size=3, unique=True)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def table_pairs(draw):
    names = draw(schemas)

    def table() -> Table:
        rows = draw(st.lists(
            st.lists(cells, min_size=len(names), max_size=len(names)),
            min_size=1, max_size=4))
        return Table(Schema(names), rows)

    return table(), table()


def key_of(request, data_root=None):
    source, target = request.load_tables(data_root)
    return request_idempotency_key(request, source, target)


class TestKeyIsStable:
    @SETTINGS
    @given(table_pairs())
    def test_transport_order_delimiter_and_hints_do_not_move_the_key(self, pair):
        source, target = pair
        inline = ExplainRequest.inline(source, target, overrides={"seed": 3})
        assert inline.load_tables() == (source, target)
        key = key_of(inline)
        reordered = ExplainRequest.from_dict(
            dict(reversed(list(inline.to_dict().items()))))
        assert key_of(reordered) == key
        assert key_of(ExplainRequest.inline(
            source, target, delimiter=";", overrides={"seed": 3})) == key
        hinted = replace(inline, name="other", priority=9, throttle_seconds=1.5)
        assert key_of(hinted) == key
        with tempfile.TemporaryDirectory() as root:
            Path(root, "s.csv").write_text(to_csv_text(source), encoding="utf-8")
            Path(root, "t.csv").write_text(to_csv_text(target), encoding="utf-8")
            for spelling in ("s.csv", "./s.csv", "../" + Path(root).name + "/s.csv"):
                by_path = ExplainRequest(
                    source_path=spelling, target_path=spelling.replace("s.csv", "t.csv"),
                    overrides={"seed": 3})
                assert key_of(by_path, Path(root)) == key

    @SETTINGS
    @given(table_pairs())
    def test_stripped_key_of_a_budgeted_request_is_the_plain_key(self, pair):
        source, target = pair
        plain = ExplainRequest.inline(source, target)
        budgeted = replace(plain, budget=ExplainBudget(deadline_ms=50.0),
                           strategy=("greedy", "full"))
        assert key_of(budgeted) != key_of(plain)
        session = ExplainSession()
        instance = ProblemInstance(source=source, target=target)
        assert session._cache_key(instance, budgeted) == key_of(plain)

    def test_configuration_equal_to_the_request_s_own_does_not_fold_in(self):
        source = Table(Schema(["a"]), [["1"]])
        request = ExplainRequest.inline(source, source, overrides={"seed": 2})
        key = request_idempotency_key(request, source, source)
        observed = identity_configuration(seed=2).with_overrides(
            should_stop=lambda: False)
        assert request_idempotency_key(request, source, source,
                                       config=observed) == key
        default_pool = tuple(ExplainSession().resolve_registry(request).names)
        assert request_idempotency_key(request, source, source,
                                       registry_names=default_pool) == key


class TestKeyMoves:
    @SETTINGS
    @given(table_pairs(), st.data())
    def test_one_cell_moves_the_key(self, pair, data):
        source, target = pair
        request = ExplainRequest.inline(source, target)
        rows = [list(row) for row in target]
        row = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.integers(0, len(target.schema) - 1))
        rows[row][column] += "b"
        changed = Table(target.schema, rows)
        assert request_idempotency_key(request, source, changed) != \
            request_idempotency_key(request, source, target)

    @SETTINGS
    @given(cells, cells.filter(bool), cells)
    def test_re_split_cells_move_the_key(self, left, middle, right):
        schema = Schema(["x", "y"])
        one = Table(schema, [[left + "\x1f" + middle, right]])
        other = Table(schema, [[left, middle + "\x1f" + right]])
        request = ExplainRequest.inline(one, one)
        assert request_idempotency_key(request, one, one) != \
            request_idempotency_key(request, other, one)

    @SETTINGS
    @given(cells, cells, cells, cells)
    def test_transposed_table_moves_the_key(self, a, b, c, d):
        # The original's columns flatten to a, c, b, d; so do the
        # transpose's rows — only the nesting tells them apart.
        assume(b != c)
        schema = Schema(["x", "y"])
        table = Table(schema, [[a, b], [c, d]])
        transposed = Table(schema, [[a, c], [b, d]])
        request = ExplainRequest.inline(table, table)
        key = request_idempotency_key(request, table, table)
        assert request_idempotency_key(request, transposed, table) != key
        # Reshaped so that header plus rows flatten to the same sequence.
        wide = Table(Schema(["x", "y", "z"]), [[a, b, c]])
        narrow = Table(Schema(["x", "y"]), [["z", a], [b, c]])
        assert request_idempotency_key(request, wide, table) != \
            request_idempotency_key(request, narrow, table)

    def test_configuration_and_pool_move_the_key(self):
        source = Table(Schema(["a"]), [["1"]])
        request = ExplainRequest.inline(source, source)
        key = request_idempotency_key(request, source, source)
        assert request_idempotency_key(
            request, source, source, config=identity_configuration(seed=9)) != key
        assert request_idempotency_key(
            request, source, source, registry_names=("identity",)) != key
        assert key_of(replace(request, overrides={"seed": 9})) != key


class TestTableFingerprint:
    def test_lazy_buffer_columns_fingerprint_like_plain_ones(self):
        table = Table(Schema(["x", "y"]), [["a", "1"], ["b", "2"], ["a", "3"]])
        lazy = buffer_table(table)
        assert lazy.fingerprint() == table.fingerprint()

    def test_frozen_fingerprint_is_computed_once(self):
        table = Table(Schema(["x"]), [["a"]])
        assert table.fingerprint() == Table(Schema(["x"]), [["a"]]).fingerprint()
        table.freeze()
        first = table.fingerprint()
        assert table.fingerprint() is first

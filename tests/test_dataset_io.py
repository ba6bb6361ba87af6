"""The discrete dataset boundary against its per-record loop references.

`save_dataset_jsonl`, `load_dataset_jsonl` and `LoggedDataset`'s record
check work on columns; `discrete_reference` keeps the record-by-record
versions they replaced. The writer must produce the same bytes and the loader
the same arrays bit for bit; `LoggedDataset` must reject a log exactly when
the validation loop reports a violation, naming the loop's first.
"""

import json
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbandit import model, simulator
from plbandit.model import (
    CHUNK_BYTES,
    PMF_ATOL,
    DatasetError,
    LoggedDataset,
    load_dataset_jsonl,
    save_dataset_jsonl,
    validate_dataset,
)

from discrete_reference import reference_load, reference_save, reference_validate

NAN, INF = float("nan"), float("inf")
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e22, 1e-7, 1e16, 0.1, 1 / 3,
    2.2250738585072014e-308, 1.7976931348623157e308,
]
# Finite floats for features, and floats in [0, 1] for losses: all a log may hold.
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
UNIT_EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1 / 3, np.nextafter(1.0, 0.0), 1.0]
unit_floats = st.one_of(st.sampled_from(UNIT_EDGES), st.floats(0.0, 1.0))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["id", "features", "x"]), inner),
    max_leaves=6,
)
metadata = st.dictionaries(
    st.sampled_from(["seed", "env", "rng", "note", "num_contexts"]),
    st.one_of(st.integers(-5, 5), st.text(max_size=4), st.floats(allow_nan=False)),
    max_size=3,
)


# Raw propensity weights; a row of them divided by its sum is a full-support pmf.
weights = st.one_of(st.sampled_from([1e-7, 0.1, 1 / 3, 1.0]), st.floats(1e-3, 1e3))


def pmf_rows(draw, n: int, num_actions: int) -> np.ndarray:
    """n full-support pmf rows of arbitrary bits: drawn weights, each row divided by its sum."""
    raw = np.array(draw(st.lists(weights, min_size=n * num_actions, max_size=n * num_actions)))
    raw = raw.reshape(n, num_actions)
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def datasets(draw):
    """Any dataset LoggedDataset accepts: losses anywhere in [0, 1] (-0.0
    included), arbitrary finite features, and full-support propensity rows."""
    n = draw(st.integers(1, 9))
    num_actions = draw(st.integers(1, 4))

    def column(shape, values=floats):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)

    kwargs = dict(
        actions=np.array(draw(st.lists(st.integers(0, num_actions - 1), min_size=n, max_size=n))),
        losses=column((n,), unit_floats),
        propensities=pmf_rows(draw, n, num_actions),
    )
    feature_dim = draw(st.none() | st.integers(0, 3))
    if feature_dim is None:
        kwargs["context_ids"] = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        kwargs["num_contexts"] = draw(st.none() | st.just(6))
    else:
        kwargs["context_features"] = column((n, feature_dim))
    return LoggedDataset(**kwargs)


@st.composite
def pooled_datasets(draw):
    """A dataset of at most 60 records drawn, interleaved, from a pool of at
    most 5 rows, so the same records repeat within and across writer chunks.

    The pool is a drawn base row, with a 0.0 loss, and up to four variants of
    it that differ from it in one bit: a -0.0 loss (equal to 0.0, its sign
    bit set); a first propensity one ulp larger (a full-support row has no
    -0.0 entry); a 5e-324 loss (0.0's bits plus one); a feature with its
    sign bit flipped.
    """
    num_actions = draw(st.integers(1, 3))
    feature_dim = draw(st.none() | st.integers(0, 3))
    action = draw(st.integers(0, num_actions - 1))
    probs = pmf_rows(draw, 1, num_actions)[0]
    width = feature_dim or 0
    features = np.array(draw(st.lists(floats, min_size=width, max_size=width)), dtype=float)

    def row(loss=0.0, nudge=False, flip=False):
        p = probs.copy()
        if nudge:
            p[0] = np.nextafter(p[0], 2.0)
        f = features.copy()
        if flip:
            f[0] = -f[0]
        return f, loss, p

    variants = [row(loss=-0.0), row(nudge=True), row(loss=5e-324)]
    if width:
        variants.append(row(flip=True))
    pool = [row()] + draw(st.permutations(variants))[:4]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    feats, losses, props = zip(*(pool[i] for i in picks))
    kwargs = dict(actions=np.full(len(picks), action), losses=np.array(losses), propensities=np.stack(props))
    if feature_dim is None:
        kwargs["context_ids"] = np.full(len(picks), draw(st.integers(0, 5)))
    else:
        kwargs["context_features"] = np.stack(feats)
    return LoggedDataset(**kwargs)


def assert_bitwise_equal(a: LoggedDataset, b: LoggedDataset):
    for name in ("actions", "losses", "propensities", "context_ids", "context_features"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.num_contexts == b.num_contexts


class TestSaveMatchesReference:
    @settings(max_examples=150)
    @given(data=datasets(), meta=metadata, chunk=st.sampled_from([1, 2, 4096]))
    def test_bytes_equal(self, tmp_path_factory, data, meta, chunk):
        tmp = tmp_path_factory.mktemp("save")
        reference_save(data, tmp / "ref.jsonl", metadata=meta)
        with mock.patch.object(model, "CHUNK_RECORDS", chunk):
            save_dataset_jsonl(data, tmp / "new.jsonl", metadata=meta)
        assert (tmp / "new.jsonl").read_bytes() == (tmp / "ref.jsonl").read_bytes()

    def test_edge_floats_written_as_json_does(self, tmp_path):
        values = np.array(EDGE_FLOATS)
        data = LoggedDataset(
            actions=np.zeros(len(values), dtype=np.int64),
            losses=np.resize(UNIT_EDGES, len(values)),
            propensities=np.column_stack([np.linspace(0.1, 0.9, len(values)), np.linspace(0.9, 0.1, len(values))]),
            context_features=values[:, None],
        )
        save_dataset_jsonl(data, tmp_path / "new.jsonl")
        reference_save(data, tmp_path / "ref.jsonl")
        text = (tmp_path / "new.jsonl").read_text()
        assert text == (tmp_path / "ref.jsonl").read_text()
        assert '"num_contexts"' not in text.splitlines()[0]
        for token in ("-0.0", "5e-324", "1e+22", "1e-07", "1.7976931348623157e+308", "0.9999999999999999"):
            assert token in text

    @settings(max_examples=200)
    @given(data=pooled_datasets(), chunk=st.sampled_from([1, 2, 3, 4096]))
    def test_repeated_records_bytes_equal(self, tmp_path_factory, data, chunk):
        tmp = tmp_path_factory.mktemp("pooled")
        reference_save(data, tmp / "ref.jsonl")
        with mock.patch.object(model, "CHUNK_RECORDS", chunk):
            save_dataset_jsonl(data, tmp / "new.jsonl")
        assert (tmp / "new.jsonl").read_bytes() == (tmp / "ref.jsonl").read_bytes()

    def test_formats_distinct_records_only(self, tmp_path):
        data = simulator.generate_logs(simulator.random_environment(0, 4, 3), 20_000, seed=0)
        rows = np.column_stack(
            [data.context_ids, data.actions, data.losses.view(np.int64), data.propensities.view(np.int64)]
        )
        chunks = range(0, data.n, model.CHUNK_RECORDS)
        distinct = sum(len(np.unique(rows[lo : lo + model.CHUNK_RECORDS], axis=0)) for lo in chunks)
        assert distinct <= 4 * 3 * 2 * len(chunks)
        with mock.patch.object(model, "_json_texts", wraps=model._json_texts) as spy:
            save_dataset_jsonl(data, tmp_path / "d.jsonl")
        for ndim in (1, 2):  # the loss column, then the propensity rows
            given_rows = [len(c.args[0]) for c in spy.call_args_list if c.args[0].ndim == ndim]
            assert len(given_rows) == len(chunks)
            assert sum(given_rows) <= distinct


def blank_lines_between(lines: list[str], positions: list[int], blanks: list[str]) -> str:
    out = list(lines)
    for pos, blank in sorted(zip(positions, blanks), reverse=True):
        out.insert(min(pos, len(out)), blank)
    return "".join(out)


class TestLoadMatchesReference:
    @settings(max_examples=100)
    @given(
        data=datasets(),
        positions=st.lists(st.integers(0, 12), max_size=6),
        blank=st.sampled_from(["\n", "   \n", "\t\n"]),
        chunk=st.sampled_from([1, 60, 200, CHUNK_BYTES]),
    )
    def test_arrays_bitwise_equal(self, tmp_path_factory, data, positions, blank, chunk):
        path = tmp_path_factory.mktemp("load") / "d.jsonl"
        save_dataset_jsonl(data, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(blank_lines_between(lines, positions, [blank] * len(positions)))
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            loaded = load_dataset_jsonl(path)
        assert_bitwise_equal(loaded, reference_load(path))

    @pytest.fixture(scope="class")
    def records_per_chunk(self, tmp_path_factory):
        """A generated file, and how many of its record lines the loader's first chunk holds."""
        data = simulator.generate_logs(simulator.random_environment((5, 101), 4, 3), 6000, seed=5)
        path = tmp_path_factory.mktemp("chunks") / "full.jsonl"
        save_dataset_jsonl(data, path, metadata={"seed": 5})
        with open(path) as fh:
            fh.readline()
            per_chunk = len(fh.readlines(CHUNK_BYTES))
        assert 1 < per_chunk < 3000
        return path.read_text().splitlines(keepends=True), per_chunk

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_chunk_boundaries(self, tmp_path, records_per_chunk, offset, chunks):
        lines, per_chunk = records_per_chunk
        n = chunks * per_chunk + offset
        path = tmp_path / "d.jsonl"
        path.write_text("".join(lines[: n + 1]))
        loaded = load_dataset_jsonl(path)
        assert loaded.n == n
        assert_bitwise_equal(loaded, reference_load(path))
        # A blank line at the boundary shifts bytes but not record indices.
        path.write_text("".join(lines[: per_chunk + 1] + ["\n"] + lines[per_chunk + 1 : n + 1]))
        assert_bitwise_equal(load_dataset_jsonl(path), reference_load(path))

    def test_error_in_a_later_chunk_names_its_record(self, tmp_path, records_per_chunk):
        lines, per_chunk = records_per_chunk
        bad = per_chunk + 7
        row = json.loads(lines[bad + 1])
        del row["loss"]
        lines = lines[:]
        lines[bad + 1] = json.dumps(row) + "\n"
        path = tmp_path / "bad.jsonl"
        path.write_text("\n" + lines[0] + "\n" + "".join(lines[1:]))
        with pytest.raises(DatasetError, match=rf"bad\.jsonl: missing key 'loss' at record {bad}$"):
            load_dataset_jsonl(path)


# Record texts a logged file repeats: few contexts, propensity rows and loss
# values. Loss texts include 0 and 0.0 (equal floats) and -0.0 (equal to 0.0
# but with its sign bit set), which must load bitwise as written.
LOSS_TEXTS = ["0", "0.0", "-0.0", "1.0", "0.5"]
PROPENSITY_TEXTS = ["[0.5, 0.5]", "[0.25, 0.75]", "[0.5, 5e-1]"]
CONTEXT_TEXTS = {
    "id": ['{"id": 0}', '{"id": 1}', '{"id": 2}'],
    "features": ['{"features": [0.1]}', '{"features": [-0.0]}', '{"features": [0.0]}'],
}


@st.composite
def repeated_files(draw):
    """A discrete dataset file whose record lines are drawn from a small alphabet,
    so lines repeat within and across chunks, with blank lines between them
    and each line ended by LF or CRLF (the last one perhaps not at all)."""
    mode = draw(st.sampled_from(sorted(CONTEXT_TEXTS)))
    record = st.builds(
        '{{"action": {}, "context": {}, "loss": {}, "propensities": {}}}'.format,
        st.sampled_from([0, 1]),
        st.sampled_from(CONTEXT_TEXTS[mode]),
        st.sampled_from(LOSS_TEXTS),
        st.sampled_from(PROPENSITY_TEXTS),
    )
    header = '{"header": {"num_actions": 2}}'
    lines = [header] + draw(st.lists(record, min_size=1, max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    text = [line + end for line, end in zip(lines, ends)]
    positions = draw(st.lists(st.integers(1, len(text)), max_size=6))
    blanks = draw(st.lists(st.sampled_from(["\n", "  \r\n", "\t\n"]), min_size=len(positions), max_size=len(positions)))
    return blank_lines_between(text, positions, blanks)


class TestRepeatedLines:
    @settings(max_examples=200)
    @given(text=repeated_files(), chunk=st.sampled_from([1, 60, 200, CHUNK_BYTES]))
    def test_arrays_bitwise_equal(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("repeated") / "d.jsonl"
        path.write_bytes(text.encode())
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            loaded = load_dataset_jsonl(path)
        assert_bitwise_equal(loaded, reference_load(path))

    def test_signed_zero_losses_stay_apart(self, tmp_path):
        row = '{"action": 0, "context": {"id": 0}, "loss": %s, "propensities": [0.5, 0.5]}'
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + "".join(row % loss + "\n" for loss in ["0.0", "-0.0", "0.0", "-0.0"]))
        assert np.signbit(load_dataset_jsonl(path).losses).tolist() == [False, True, False, True]


HEADER = '{"header": {"num_actions": 2}}\n'
GOOD = {"context": {"id": 0}, "action": 1, "loss": 0.5, "propensities": [0.5, 0.5]}


def load_lines(tmp_path, *records: str, header: str = HEADER) -> LoggedDataset:
    path = tmp_path / "d.jsonl"
    path.write_text(header + "".join(r + "\n" for r in records))
    return load_dataset_jsonl(path)


def with_field(key: str, value) -> str:
    row = json.loads(json.dumps(GOOD))
    if key.startswith("context."):
        row["context"][key.split(".")[1]] = value
    else:
        row[key] = value
    return json.dumps(row)


class TestLoaderErrors:
    @pytest.mark.parametrize("key", ["action", "loss", "propensities", "context"])
    def test_missing_field(self, tmp_path, key):
        row = dict(GOOD)
        del row[key]
        with pytest.raises(DatasetError, match=rf"d\.jsonl: missing key '{key}' at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), json.dumps(row))

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null"])
    def test_not_an_object(self, tmp_path, line):
        with pytest.raises(DatasetError, match=r"record is not a JSON object at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), line)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(DatasetError, match=r"d\.jsonl: invalid JSON \(.*\) at record 2$"):
            load_lines(tmp_path, json.dumps(GOOD), json.dumps(GOOD), '{"context": ')

    @pytest.mark.parametrize("key", ["action", "context.id"])
    @pytest.mark.parametrize(
        "value, text", [(1.7, "1.7"), (1.0, "1.0"), (True, "true"), ("1", '"1"'), (None, "null")]
    )
    def test_non_integer_index(self, tmp_path, key, value, text):
        with pytest.raises(DatasetError, match=rf"{key} {text} is not an integer at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), with_field(key, value))

    @pytest.mark.parametrize("key", ["action", "context.id"])
    def test_index_beyond_int64(self, tmp_path, key):
        with pytest.raises(DatasetError, match=rf"{key} {2**63} out of range at record 0$"):
            load_lines(tmp_path, with_field(key, 2**63))

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5], 10**400])
    def test_non_numeric_loss(self, tmp_path, value):
        with pytest.raises(DatasetError, match=r"loss .* is not a number at record 0$"):
            load_lines(tmp_path, with_field("loss", value))

    @pytest.mark.parametrize("value", [[0.5], [0.3, 0.3, 0.4], 0.5, {"a": 1}])
    def test_wrong_propensity_vector(self, tmp_path, value):
        message = r"propensity vector does not match header action count at record 1$"
        with pytest.raises(DatasetError, match=message):
            load_lines(tmp_path, json.dumps(GOOD), with_field("propensities", value))

    def test_non_numeric_propensity(self, tmp_path):
        with pytest.raises(DatasetError, match=r"propensities are not all numbers at record 0$"):
            load_lines(tmp_path, with_field("propensities", [0.5, "0.5"]))

    def test_first_bad_record_is_named(self, tmp_path):
        # Record 2 lacks a loss, record 1 has a bad action: the earlier record wins.
        no_loss = dict(GOOD)
        del no_loss["loss"]
        with pytest.raises(DatasetError, match=r"action 1.5 is not an integer at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), with_field("action", 1.5), json.dumps(no_loss))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("action", 7, r"action 7 out of range \[0, 2\)"),
            ("propensities", [0.3, 0.3], "propensities do not sum to 1"),
            ("propensities", [1.0, 0.0], "zero propensity"),
            ("propensities", [0.5, NAN], "non-finite propensity"),
            ("loss", 1.5, r"loss out of \[0,1\]"),
            ("loss", NAN, "non-finite loss"),
            ("context.id", -1, "context id -1 is negative"),
        ],
    )
    def test_rejected_record_named_before_a_later_one(self, tmp_path, key, value, message):
        # LoggedDataset's rule runs on each chunk before the next is read, and
        # on each record of a chunk that fails to parse, so a record it
        # rejects is named before a later record with a missing field.
        no_loss = json.dumps({k: v for k, v in GOOD.items() if k != "loss"})
        bad = with_field(key, value)
        with pytest.raises(DatasetError, match=rf"d\.jsonl: {message} at record 0$"):
            load_lines(tmp_path, bad, json.dumps(GOOD), json.dumps(GOOD), no_loss)
        with pytest.raises(DatasetError, match=rf"d\.jsonl: {message} at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), bad, json.dumps(GOOD), bad)
        with mock.patch.object(model, "CHUNK_BYTES", 1):  # a chunk per line
            with pytest.raises(DatasetError, match=rf"d\.jsonl: {message} at record 1$"):
                load_lines(tmp_path, json.dumps(GOOD), bad, json.dumps(GOOD), no_loss)

    @pytest.mark.parametrize("chunk", [1, CHUNK_BYTES])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (with_field("context.id", 3), r"context id 3 out of range \[0, 3\)"),
            (json.dumps({**GOOD, "context": {"features": [0.5, NAN]}}), "non-finite context feature"),
        ],
        ids=["context-id-at-count", "nan-feature"],
    )
    def test_context_fault_named_before_a_later_one(self, tmp_path, chunk, bad, message):
        # The header's num_contexts bounds the ids of every chunk as it is read.
        header = '{"header": {"num_actions": 2, "num_contexts": 3}}\n'
        no_loss = json.dumps({k: v for k, v in GOOD.items() if k != "loss"})
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            with pytest.raises(DatasetError, match=rf"d\.jsonl: {message} at record 0$"):
                load_lines(tmp_path, bad, json.dumps(GOOD), json.dumps(GOOD), no_loss, header=header)

    def test_repeated_malformed_record_named_at_first(self, tmp_path):
        no_loss = json.dumps({k: v for k, v in GOOD.items() if k != "loss"})
        bad_action = with_field("action", 1.5)
        with pytest.raises(DatasetError, match=r"missing key 'loss' at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), no_loss, json.dumps(GOOD), bad_action, no_loss)

    @pytest.mark.parametrize(
        "line",
        [
            '{"context": ',
            json.dumps(GOOD) + ", " + json.dumps(GOOD),  # two values: one line, two array elements
            json.dumps(GOOD) + " " + json.dumps(GOOD),
        ],
    )
    def test_repeated_invalid_json_named_at_first(self, tmp_path, line):
        other = '{"context": 1'
        with pytest.raises(DatasetError, match=r"d\.jsonl: invalid JSON \(.*\) at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), line, json.dumps(GOOD), other, line)

    @pytest.mark.parametrize("chunk", [1, 200, CHUNK_BYTES])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (json.dumps({k: v for k, v in GOOD.items() if k != "action"}), "missing key 'action'"),
            ('{"action": 1,', r"invalid JSON \(.*\)"),
            (with_field("propensities", [0.3, 0.3]), "propensities do not sum to 1"),
        ],
    )
    def test_bad_line_first_seen_in_a_later_chunk(self, tmp_path, chunk, bad, message):
        # Records 0-7 repeat two good lines; the bad line first appears at
        # record 8, in a later chunk for the small chunk sizes, and again at 10.
        good = [json.dumps(GOOD), with_field("loss", 1.0)]
        rows = good * 4 + [bad, good[0], bad, good[1]]
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            with pytest.raises(DatasetError, match=rf"{message} at record 8$"):
                load_lines(tmp_path, *rows)

    @pytest.mark.parametrize("chunk", [1, CHUNK_BYTES])
    def test_record_zero_text_reused_after_a_mode_switch(self, tmp_path, chunk):
        ids = json.dumps(GOOD)
        features = json.dumps({**GOOD, "context": {"features": [0.1]}})
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            for first, other in [(ids, features), (features, ids)]:
                with pytest.raises(DatasetError, match=r"records mix finite and feature contexts at record 2$"):
                    load_lines(tmp_path, first, first, other, first, other)

    def test_mixed_contexts(self, tmp_path):
        features = json.dumps({**GOOD, "context": {"features": [0.1]}})
        with pytest.raises(DatasetError, match=r"records mix finite and feature contexts at record 1$"):
            load_lines(tmp_path, json.dumps(GOOD), features)
        with pytest.raises(DatasetError, match=r"records mix finite and feature contexts at record 1$"):
            load_lines(tmp_path, features, json.dumps(GOOD))

    def test_ragged_features(self, tmp_path):
        rows = [json.dumps({**GOOD, "context": {"features": f}}) for f in ([0.1, 0.2], [0.3])]
        with pytest.raises(DatasetError, match=r"context.features has 1 entries, record 0 has 2 at record 1$"):
            load_lines(tmp_path, *rows)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("", "missing header line"),
            ("\n\n", "missing header line"),
            ('{"records": 1}\n', "missing header line"),
            ('{"header": {}}\n', "header lacks key 'num_actions'"),
            ('{"header": {"num_actions": "two"}}\n', 'header num_actions "two" is not an integer'),
            ('{"header": {"num_actions": 2.0}}\n', "header num_actions 2.0 is not an integer"),
            ('{"header": {"num_actions": 2, "num_contexts": 2.5}}\n', "header num_contexts 2.5 is not an integer"),
        ],
    )
    def test_bad_header(self, tmp_path, header, message):
        with pytest.raises(DatasetError, match=message):
            load_lines(tmp_path, json.dumps(GOOD), header=header)

    @settings(max_examples=300)
    @given(
        edits=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["context", "context.id", "action", "loss", "propensities", "line"]),
                st.none() | json_values,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_any_malformed_record_is_named(self, tmp_path_factory, edits):
        # Whatever a record holds, loading succeeds or raises DatasetError
        # naming a record; it never fails with another exception.
        rows = [json.loads(json.dumps(GOOD)) for _ in range(4)]
        for record, key, value in edits:
            row = rows[record]
            if key == "line":
                rows[record] = value
            elif not isinstance(row, dict):
                continue
            elif key == "context.id" and isinstance(row.get("context"), dict):
                row["context"]["id"] = value
            elif value is None:
                row.pop(key.split(".")[0], None)
            else:
                row[key.split(".")[0]] = value
        try:
            load_lines(tmp_path_factory.mktemp("fuzz"), *map(json.dumps, rows))
        except DatasetError as err:
            assert re.search(r"at record [0-3]$", str(err)), str(err)

    def test_no_records(self, tmp_path):
        with pytest.raises(DatasetError, match="at least one record"):
            load_lines(tmp_path, "", "  ")


def record_line(action: int, loss: str) -> str:
    return f'{{"action": {action}, "context": {{"id": 0}}, "loss": {loss}, "propensities": [0.5, 0.5]}}'


# Four records, lines repeating: the same log in every text-mode test below.
RECORDS = [record_line(0, "0.5"), record_line(1, "1.0"), record_line(0, "0.5"), record_line(1, "0.0")]


class TestReaderTextMode:
    """The reader's line semantics: the text mode's universal newlines split
    lines, and str.isspace decides which are blank."""

    @pytest.fixture
    def expected(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        path.write_text(HEADER + "".join(r + "\n" for r in RECORDS))
        return load_dataset_jsonl(path)

    @pytest.mark.parametrize("blank", ["\u00a0\n", "\u2003\r\n", "\u3000\u2028\n", "\x0c\x0b\n"])
    @pytest.mark.parametrize("chunk", [1, CHUNK_BYTES])
    def test_unicode_whitespace_lines_are_blank(self, tmp_path, expected, blank, chunk):
        text = blank + HEADER + blank + RECORDS[0] + "\n" + blank + blank + "".join(r + "\n" for r in RECORDS[1:]) + blank
        path = tmp_path / "d.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            assert_bitwise_equal(load_dataset_jsonl(path), expected)

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    @pytest.mark.parametrize("chunk", [1, CHUNK_BYTES])
    def test_cr_line_ends_split_records(self, tmp_path, expected, end, chunk):
        path = tmp_path / "d.jsonl"
        path.write_bytes((HEADER.strip() + end + end.join(RECORDS) + end).encode())
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            assert_bitwise_equal(load_dataset_jsonl(path), expected)

    def test_records_on_one_line_are_one_bad_record(self, tmp_path):
        # A line ends only at LF, CR or CRLF: two records on one line are not valid JSON.
        path = tmp_path / "d.jsonl"
        path.write_text(HEADER + RECORDS[0] + "\n" + RECORDS[1] + "\u2028" + RECORDS[2] + "\n")
        with pytest.raises(DatasetError, match=r"invalid JSON \(.*\) at record 1$"):
            load_dataset_jsonl(path)


class TestNotUtf8:
    """A byte that is not UTF-8 raises DatasetError naming the file and the first record holding it."""

    @staticmethod
    def write(tmp_path, bad: bytes, at: set[int]):
        """Six records; those in `at` hold `bad` inside their "loss" key."""
        lines = [HEADER.encode()]
        for i in range(6):
            line = RECORDS[i % len(RECORDS)].encode()
            if i in at:
                line = line.replace(b'"loss"', b'"lo' + bad + b'ss"')
            lines.append(line + b"\n")
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"".join(lines))
        return path

    @pytest.mark.parametrize("bad, byte", [(b"\xff", "0xff"), (b"\xc3", "0xc3"), (b"\xe9t\xe9", "0xe9")])
    @pytest.mark.parametrize("chunk", [1, 200, CHUNK_BYTES])
    def test_record(self, tmp_path, bad, byte, chunk):
        path = self.write(tmp_path, bad, at={3, 4, 5})
        with mock.patch.object(model, "CHUNK_BYTES", chunk):
            with pytest.raises(DatasetError, match=rf"d\.jsonl: invalid UTF-8 byte {byte} at record 3$"):
                load_dataset_jsonl(path)

    def test_repeated_line_names_its_first_record(self, tmp_path):
        # Records 1 and 5 hold the same bad line, and record 3 a valid one.
        path = self.write(tmp_path, b"\xff", at={1, 5})
        with pytest.raises(DatasetError, match=r"invalid UTF-8 byte 0xff at record 1$"):
            load_dataset_jsonl(path)

    def test_not_a_blank_line(self, tmp_path):
        # 0xa0 is a no-break space in Latin-1, but not UTF-8: the line is a bad record, not a blank one.
        path = tmp_path / "d.jsonl"
        path.write_bytes(HEADER.encode() + RECORDS[0].encode() + b"\n \xa0\n" + RECORDS[1].encode() + b"\n")
        with pytest.raises(DatasetError, match=r"invalid UTF-8 byte 0xa0 at record 1$"):
            load_dataset_jsonl(path)

    @pytest.mark.parametrize("lead", [b"", b"\n \n"])
    def test_header_line(self, tmp_path, lead):
        path = tmp_path / "d.jsonl"
        path.write_bytes(lead + b'{"header": {"num_actions": 2, "note": "\xff"}}\n' + RECORDS[0].encode() + b"\n")
        with pytest.raises(DatasetError, match=r"d\.jsonl: invalid UTF-8 byte 0xff in the header line$"):
            load_dataset_jsonl(path)

    def test_valid_non_ascii_text_loads(self, tmp_path):
        path = tmp_path / "d.jsonl"
        header = '{"header": {"num_actions": 2, "note": "d\u00e9j\u00e0 vu \u2713"}}\n'
        path.write_bytes((header + RECORDS[0] + "\n").encode("utf-8"))
        assert load_dataset_jsonl(path).n == 1


CLEAN = simulator.generate_logs(simulator.random_environment((0, 101), 4, 3), 40, seed=3)
corruptions = st.lists(
    st.tuples(
        st.integers(0, CLEAN.n - 1),
        st.sampled_from(["loss", "entry", "logged", "scale"]),
        st.sampled_from([NAN, INF, -INF, -0.25, 0.0, 1e-13, 1e-12, 1.0, 1.5, 7.0]),
        st.integers(0, CLEAN.num_actions - 1),
    ),
    max_size=8,
)


KINDS = (
    "non-finite loss",
    "loss out of [0,1]",
    "non-finite propensity",
    "propensities do not sum to 1",
    "zero propensity",
    "logged action has zero propensity",
)


def build_or_reject(actions, losses, props):
    """The log of these arrays, checked against the per-record loop.

    The constructor must accept them exactly when the loop reports nothing,
    and otherwise name the loop's first violation (record and kind). Returns
    the loop's report.
    """
    report = reference_validate(SimpleNamespace(n=len(actions), actions=actions, losses=losses, propensities=props))

    def build():
        return LoggedDataset(actions=actions, losses=losses, propensities=props, context_ids=np.zeros(len(actions)))

    if report:
        with pytest.raises(DatasetError, match=f"^{re.escape(report[0])}$"):
            build()
    else:
        assert validate_dataset(build()) == []
    return report


class TestValidatorMatchesLoop:
    @settings(max_examples=200)
    @given(changes=corruptions)
    def test_reports_equal(self, changes):
        losses, props = CLEAN.losses.copy(), CLEAN.propensities.copy()
        for record, kind, value, action in changes:
            if kind == "loss":
                losses[record] = value
            elif kind == "entry":
                props[record, action] = value
            elif kind == "logged":
                props[record, CLEAN.actions[record]] = value
            else:
                with np.errstate(invalid="ignore"):
                    props[record] *= value
        build_or_reject(CLEAN.actions, losses, props)

    @given(
        width=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        ulps=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    )
    def test_sum_at_the_tolerance_edge(self, width, seed, ulps):
        # Rows summing to 1 +- PMF_ATOL, nudged by a few ulps either way; the
        # widths cover numpy's sequential and pairwise summation. Each row is
        # a log of its own, so every row's verdict is checked.
        rng = np.random.default_rng(seed)
        for sign, ulp in zip((1, 1, -1, -1), ulps):
            row = rng.random(width) + 0.1
            row /= row.sum()
            row[-1] += sign * PMF_ATOL
            row[-1] += ulp * np.spacing(row[-1])
            build_or_reject(np.zeros(1, dtype=np.int64), np.zeros(1), row[None, :])

    def test_edge_row_both_sides(self):
        # 0.25 - PMF_ATOL rounds to a row whose sum misses 1 by just under
        # PMF_ATOL; one ulp less misses by just over it.
        low = 0.25 - PMF_ATOL
        rows = np.array([[0.75, low], [0.75, np.nextafter(low, 0.0)], [0.75, 0.25 + PMF_ATOL]])
        assert build_or_reject(np.zeros(3, dtype=np.int64), np.zeros(3), rows) == [
            "propensities do not sum to 1 at record 1",
            "propensities do not sum to 1 at record 2",
        ]
        assert build_or_reject(np.zeros(1, dtype=np.int64), np.zeros(1), rows[:1]) == []

    @settings(max_examples=100)
    @given(
        num_actions=st.integers(1, 12),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        plants=st.lists(st.tuples(st.integers(0, 29), st.sampled_from(KINDS)), max_size=4),
    )
    def test_planted_violations(self, num_actions, n, seed, plants):
        # A valid log reports nothing; each planted kind of violation makes
        # the loop's report non-empty, and the log is rejected or validated
        # as build_or_reject requires.
        rng = np.random.default_rng(seed)
        props = rng.random((n, num_actions)) + 0.1
        props /= props.sum(axis=1, keepdims=True)
        actions = rng.integers(0, num_actions, n)
        losses = rng.random(n)
        assert build_or_reject(actions, losses, props) == []
        for record, kind in plants:
            i, action = record % n, int(rng.integers(num_actions))
            if kind == "non-finite loss":
                losses[i] = NAN
            elif kind == "loss out of [0,1]":
                losses[i] = 1.5
            elif kind == "non-finite propensity":
                props[i, action] = INF
            elif kind == "propensities do not sum to 1":
                props[i] *= 1.5
            elif kind == "zero propensity":
                props[i, action] = 0.0
            else:
                props[i, actions[i]] = 1e-13
        assert bool(build_or_reject(actions, losses, props)) == bool(plants)

    def test_non_finite_row_skips_later_checks(self):
        # Record 0's row is not finite, so the loop reports nothing else
        # about it; the constructor names it before record 1's faults.
        losses = np.array([NAN, 2.0])
        assert build_or_reject(np.array([0, 1]), losses, np.array([[NAN, 0.0], [0.0, 0.5]])) == [
            "non-finite loss at record 0",
            "non-finite propensity at record 0",
            "loss out of [0,1] at record 1",
            "propensities do not sum to 1 at record 1",
            "zero propensity at record 1",
        ]
        assert build_or_reject(np.array([0, 1]), losses, np.full((2, 2), 0.5)) == [
            "non-finite loss at record 0",
            "loss out of [0,1] at record 1",
        ]

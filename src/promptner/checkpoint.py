"""Checkpoint and score-table file formats.

A checkpoint is a single binary file: a 4-byte magic, a uint32 little-endian
header length, a JSON header (format version, model config, vocab, seed
lineage, parameter dtype, names and shapes in payload order), then the raw
payload of little-endian row-major tensors of that dtype in the
header-declared order. A model with float64 parameters is written as "<f8";
a header without a dtype is float32, so float32 files keep the bytes they
had before the dtype was recorded. Round-trips are bit-exact.

Score tables are exported one JSON record per sentence so the decoder can
run standalone.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from . import tensor as T
from .data import _finite, _jsonl_records, _mentions, _type_name
from .errors import DataError
from .matcher import ScoreTable, enumerate_spans, span_count
from .model import Model, ModelConfig, param_shapes
from .tokenizer import Vocab

MAGIC = b"PNCK"
FORMAT_VERSION = 1
DTYPES = {"<f4": np.float32, "<f8": np.float64}  # header dtype -> parameter dtype


def save_checkpoint(path, model, seeds=()):
    names = sorted(model.params)
    dtype = "<f8" if any(model.params[n].dtype == np.float64 for n in names) else "<f4"
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "seeds": list(seeds),
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    if dtype != "<f4":  # float32 headers stay as they were before dtypes were recorded
        header["dtype"] = dtype
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].data, dtype=dtype).tobytes())


def load_checkpoint(path):
    with open(path, "rb") as fh:
        preamble = fh.read(8)
        if preamble[:4] != MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        if len(preamble) < 8:
            raise DataError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", preamble[4:])
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # invalid UTF-8 or JSON, or cut short
            raise DataError(f"{path}: header is not valid JSON: {exc}") from exc
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported format version {version}")
        dtype = header.get("dtype", "<f4")
        if not (isinstance(dtype, str) and dtype in DTYPES):
            raise DataError(f"{path}: unsupported parameter dtype {dtype!r}")
        itemsize = np.dtype(dtype).itemsize
        try:
            config = ModelConfig.from_dict(header["config"])
            vocab = Vocab.from_dict(header["vocab"])
            entries = [(e["name"], e["shape"]) for e in header["params"]]
            shapes = dict(entries)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed header: {exc!r}") from exc
        for name, shape in entries:
            if not (isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)):
                raise DataError(f"{path}: shape of {name!r} is not a list of "
                                f"non-negative ints: {shape!r}")
        declared = itemsize * sum(math.prod(shape) for _, shape in entries)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared > left:
            raise DataError(f"{path}: truncated payload: the header declares "
                            f"{declared} bytes, {left} are left")
        wrong = _param_mismatch(shapes, len(entries), config, len(vocab))
        if wrong:
            raise DataError(f"{path}: parameters disagree with the header's config: {wrong}")
        params = {}
        for name, shape in entries:
            buf = fh.read(itemsize * math.prod(shape))
            arr = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: non-finite value in {name!r}")
            params[name] = T.Tensor(arr, requires_grad=True, dtype=DTYPES[dtype])
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the payload")
    return Model(config, vocab, params), header.get("seeds", [])


def _param_mismatch(shapes, listed, config, vocab_size):
    """How a header's name -> shape dict (of ``listed`` entries) differs from
    the parameters of ``config``, or None."""
    if len(shapes) != listed:
        return "a parameter is listed twice"
    if config.encoder.depth > listed:  # refused before building a table that long
        return f"encoder depth {config.encoder.depth} for {listed} parameters"
    expected = param_shapes(config, vocab_size)
    for name, shape in expected.items():
        if name not in shapes:
            return f"{name!r} is missing"
        if shapes[name] != list(shape):
            return f"{name!r} has shape {shapes[name]}, the config gives {list(shape)}"
    extra = [name for name in shapes if name not in expected]
    return f"{extra[0]!r} is not in the config" if extra else None


def save_score_tables(tables, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in tables:
            rec = {
                "num_words": t.num_words,
                "k": t.k,
                "types": list(t.types),
                "spans": t.spans.tolist(),
                "probs": np.asarray(t.probs).reshape(-1).tolist(),
            }
            if t.logits is not None:
                rec["logits"] = np.asarray(t.logits).reshape(-1).tolist()
            fh.write(json.dumps(rec) + "\n")


def load_score_tables(path):
    tables = []
    for lineno, rec in _jsonl_records(path):
        try:
            tables.append(_score_table(rec))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # DataError is a ValueError
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return tables


def _score_table(rec):
    """One parsed record as a ScoreTable; the caller adds the file position."""
    if not isinstance(rec, dict):
        raise DataError("a score-table record must be a JSON object")
    spans = np.array(rec["spans"])
    if (spans.ndim != 2 or spans.shape[1] != 2 or spans.dtype.kind != "i"
            or any(type(i) is not int for pair in rec["spans"] for i in pair)):
        raise DataError("spans must be a list of [start, end] integer pairs")
    types = rec["types"]
    if not isinstance(types, list):
        raise DataError(f"types must be a list of entity types, got {types!r}")
    if len({_type_name(t) for t in types}) != len(types):
        raise DataError(f"types must be distinct, got {types!r}")
    num_words, k = rec["num_words"], rec["k"]
    if not (type(num_words) is int and type(k) is int):
        raise DataError(f"num_words and k must be JSON integers, got {num_words!r}, {k!r}")
    # the count check first, so a huge num_words is refused before enumerating
    if (len(spans) != span_count(num_words, k)
            or not np.array_equal(spans, enumerate_spans(num_words, k))):
        raise DataError("span list is not the K-capped enumeration")
    probs = np.array([_finite(p, "probability") for p in rec["probs"]], dtype=np.float64)
    if probs.size != len(spans) * len(types):
        raise DataError(f"probs length {probs.size} != "
                        f"{len(spans)} spans x {len(types)} types")
    if probs.size and not ((probs > 0) & (probs < 1)).all():
        raise DataError("probabilities must lie in (0, 1)")
    probs = probs.reshape(len(spans), len(types))
    logits = rec.get("logits")
    if logits is not None:
        logits = np.array([_finite(x, "logit") for x in logits],
                          dtype=np.float64).reshape(len(spans), len(types))
    return ScoreTable(spans=spans, types=types, probs=probs, logits=logits,
                      num_words=num_words, k=k)


def save_mentions(mention_lists, path, words_lists=None):
    """Prediction records, dataset-compatible: [start, end, type, score]."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, mentions in enumerate(mention_lists):
            rec = {"ner": [[m.start, m.end, m.type, m.score] for m in mentions]}
            if words_lists is not None:
                rec["tokenized_text"] = list(words_lists[i])
            fh.write(json.dumps(rec) + "\n")


def load_mentions(path):
    """Mention lists from a prediction or dataset file (scores optional)."""
    out = []
    for lineno, rec in _jsonl_records(path):
        try:
            out.append(_mentions(rec))
        except (TypeError, ValueError) as exc:  # DataError is a ValueError
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out

"""Checkpoint and prediction file formats.

A checkpoint is a single binary file: a 4-byte magic, a uint32 little-endian
header length, a JSON header (format version, model config, vocab, seed
lineage, parameter dtype, names and shapes in payload order), then the raw
payload of little-endian row-major tensors of that dtype in the
header-declared order. A model with float64 parameters is written as "<f8";
a header without a dtype is float32, so float32 files keep the bytes they
had before the dtype was recorded. Round-trips are bit-exact; a model with
a non-finite parameter is refused on save, as its file would be on load.
On load the header's parameter list must equal, as a whole and with JSON
types (64.0 is not 64), the one the config's shape table gives (sorted names
and their shapes, as saved), and the payload hold exactly that table's bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from . import tensor as T
from .data import _mentions, read_jsonl, write_jsonl
from .errors import ContractError, DataError
from .model import Model, ModelConfig, param_shapes
from .tokenizer import Vocab

MAGIC = b"PNCK"
FORMAT_VERSION = 1
DTYPES = {"<f4": np.float32, "<f8": np.float64}  # header dtype -> parameter dtype


def save_checkpoint(path, model, seeds=()):
    names = sorted(model.params)
    for n in names:  # load_checkpoint refuses such a file: do not write it
        if not np.isfinite(model.params[n].data).all():
            raise ContractError(f"{path}: non-finite value in {n!r}, checkpoint not written")
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
        try:
            config = ModelConfig.from_dict(header["config"])
            vocab = Vocab.from_dict(header["vocab"])
            listed = list(header["params"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed header: {exc!r}") from exc
        if config.encoder.depth > len(listed):  # refused before building a table that long
            raise DataError(f"{path}: parameters disagree with the header's config: "
                            f"encoder depth {config.encoder.depth} for {len(listed)} parameters")
        table = param_shapes(config, len(vocab))
        names = sorted(table)
        derived = [{"name": n, "shape": list(table[n])} for n in names]  # as saved
        # exact: == alone would take a JSON 64.0 or true for 64 or 1
        if listed != derived or any(type(d) is not int for e in listed for d in e["shape"]):
            got = [json.dumps(e, sort_keys=True) for e in listed] + ["missing"]
            want = [json.dumps(e) for e in derived] + ["no entry"]  # no JSON text is either
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            raise DataError(f"{path}: params[{i}] is {got[i]}, the config gives {want[i]}")
        sizes = [np.dtype(dtype).itemsize * math.prod(table[n]) for n in names]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != sum(sizes):
            raise DataError(f"{path}: payload truncated or overlong: {left} bytes, "
                            f"the config's parameters take {sum(sizes)}")
        params = {}
        for name, size in zip(names, sizes):
            arr = np.frombuffer(fh.read(size), dtype=dtype).reshape(table[name]).copy()
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: non-finite value in {name!r}")
            params[name] = T.Tensor(arr, requires_grad=True, dtype=DTYPES[dtype])
    return Model(config, vocab, params), header.get("seeds", [])


def mention_records(mention_lists, words_lists):
    """Prediction records, dataset-compatible: the words, then each mention
    as [start, end, type, score]."""
    for ms, words in zip(mention_lists, words_lists):
        yield {"tokenized_text": list(words),
               "ner": [[m.start, m.end, m.type, m.score] for m in ms]}


def save_mentions(mention_lists, path, words_lists):
    write_jsonl(path, mention_records(mention_lists, words_lists))


def load_mentions(path):
    """Mention lists from a prediction or dataset file (scores optional)."""
    return read_jsonl(path, _mentions)

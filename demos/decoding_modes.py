"""Greedy span selection: flat vs nested decoding on hand-built tables.

The decoder walks candidate (span, type) pairs in descending probability
and keeps a candidate only if it is compatible with everything already
kept: flat mode requires disjoint spans, nested mode also allows proper
containment. The threshold is strict -- probability must exceed 0.5.

Run:  python3 demos/decoding_modes.py
"""

import numpy as np

from promptner import DecodeConfig, ScoreTable, decode, enumerate_spans


def table(num_words, k, entries, types):
    spans = enumerate_spans(num_words, k)
    idx = {tuple(s): i for i, s in enumerate(spans.tolist())}
    col = {t: j for j, t in enumerate(types)}
    logits = np.full((len(spans), len(types)), -9.0)
    for start, end, typ, prob in entries:
        logits[idx[(start, end)], col[typ]] = np.log(prob) - np.log1p(-prob)  # logit
    return ScoreTable(num_words, k, types, logits=logits)


def show(label, mentions):
    parts = [f"({m.start},{m.end},{m.type},p={m.score:.2f})" for m in mentions]
    print(f"  {label}: {' '.join(parts) if parts else '(nothing)'}")


def main():
    print("overlapping candidates, flat mode")
    t = table(6, 3, [(0, 2, "a", 0.9), (1, 3, "b", 0.8), (4, 5, "c", 0.6)],
              ["a", "b", "c"])
    print("  candidates: (0,2,a,0.9) (1,3,b,0.8) (4,5,c,0.6)")
    print("  (1,3) overlaps the higher-scoring (0,2) and is dropped;")
    print("  (4,5) is disjoint and survives")
    show("flat  ", decode(t, DecodeConfig(mode="flat")))

    print("\nnested candidates")
    t = table(5, 4, [(0, 3, "a", 0.9), (1, 2, "b", 0.8), (2, 4, "c", 0.7)],
              ["a", "b", "c"])
    print("  candidates: (0,3,a,0.9) (1,2,b,0.8) (2,4,c,0.7)")
    print("  (1,2) sits fully inside (0,3) -- kept in nested mode only;")
    print("  (2,4) partially overlaps both and is dropped in both modes")
    show("flat  ", decode(t, DecodeConfig(mode="flat")))
    show("nested", decode(t, DecodeConfig(mode="nested")))

    print("\nstrict threshold")
    t = table(1, 1, [(0, 0, "a", 0.5)], ["a"])
    print("  a candidate at probability exactly 0.5 is rejected (must exceed)")
    show("flat  ", decode(t, DecodeConfig(threshold=0.5)))

    print("\nmultilabel")
    t = table(1, 1, [(0, 0, "a", 0.95), (0, 0, "b", 0.9)], ["a", "b"])
    print("  the same span scored for two types keeps both only when allowed")
    show("default   ", decode(t, DecodeConfig()))
    show("multilabel", decode(t, DecodeConfig(allow_multilabel=True)))


if __name__ == "__main__":
    main()

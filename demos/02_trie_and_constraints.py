"""The DocID prefix tree and the dynamic constraint rule.

The trie admits exactly the corpus identifiers. During decoding, a backward
scan of the generated tokens decides whether the next token is constrained:
a close symbol ends the scan unconstrained, an open symbol engages the trie
on everything after it.
"""
from pathlib import Path

from docidlm import (
    DOCID_CLOSE, DOCID_OPEN,
    allowed_continuations, allowed_mask, build_trie, build_vocabulary,
    encode, ingest_corpus, scan_state, step_state,
)
from docidlm.constraints import UNCONSTRAINED, GrammarState, Phase, step
from docidlm.trie import ExclusionSet, exclude

DATA = Path(__file__).parent / "data"

corpus = ingest_corpus(DATA / "corpus.jsonl")
vocab = build_vocabulary(corpus, [])
trie = build_trie(corpus, vocab)
root = allowed_continuations(trie, [], ExclusionSet(trie))
print(f"trie over {len(trie)} DocIDs; root branches: "
      f"{sorted(vocab.surface(t) for t in root.tokens)}\n")

def show(prefix_text, excl):
    prefix = encode(vocab, prefix_text)
    cont = allowed_continuations(trie, prefix, excl)
    tokens = sorted(vocab.surface(t) for t in cont.tokens)
    print(f"  after {prefix_text!r:20} -> continue with {tokens}, "
          f"close {'allowed' if cont.close_permitted else 'forbidden'}")

excl = ExclusionSet(trie)
print("continuation queries walk the trie:")
show("mars", excl)
show("mars #", excl)
show("mars # overview", excl)

print("\nexcluding 'Mars # overview' prunes that branch for this session:")
exclude(excl, "Mars # overview")
show("mars #", excl)
show("mars # overview", excl)

print("\nthe backward scan decides when constraints are active:")
q = encode(vocab, "which planet")
m = encode(vocab, "mars #")
histories = {
    "plain query tokens": q,
    "inside an open span": q + [DOCID_OPEN] + m,
    "after a closed span": q + [DOCID_OPEN] + m + [DOCID_CLOSE],
}
for label, history in histories.items():
    state = scan_state(history)
    print(f"  {label:22} -> {state.mode.value}")

# the incremental step keeps the same answer at constant per-token cost
state = UNCONSTRAINED
for token in histories["after a closed span"]:
    state = step_state(state, token)
assert state == scan_state(histories["after a closed span"])
print("\nfolding step_state over the history agrees with the scan")

# the output-grammar automaton turns that state into the legal token ids
state = GrammarState(Phase.LIST)
mask = allowed_mask(state, trie, ExclusionSet(trie), vocab.size)
print(f"list-phase mask outside a span: {[vocab.surface(t) for t in mask]}")
for token in [DOCID_OPEN] + encode(vocab, "mars #"):
    state = step(state, token)
mask = allowed_mask(state, trie, ExclusionSet(trie), vocab.size)
print(f"mask inside the span 'mars #': {[vocab.surface(t) for t in mask]}")

import random

import pytest

from docidlm.decoder import layout_text, layout_tokens
from docidlm.tokens import (
    ANSWER_OPEN,
    DOCID_CLOSE,
    DOCID_OPEN,
    EOS,
    REF_CLOSE,
    REF_OPEN,
    SPECIAL_SURFACES,
    UNK,
    InvalidTokenError,
    build_vocabulary,
    decode,
    encode,
    load_vocabulary,
    save_vocabulary,
    split_words,
)

from conftest import corpus_from_rows, random_text, random_text_corpus


def test_special_ids_fixed_order():
    assert (DOCID_OPEN, DOCID_CLOSE, REF_OPEN, REF_CLOSE, ANSWER_OPEN, EOS, UNK) == (0, 1, 2, 3, 4, 5, 6)
    assert SPECIAL_SURFACES[DOCID_OPEN] == "<docid>"
    assert SPECIAL_SURFACES[DOCID_CLOSE] == "</docid>"


def test_build_vocabulary_sorted_union():
    corpus = corpus_from_rows([("1", "t", "", "a b"), ("2", "u", "", "b c")])
    vocab = build_vocabulary(corpus, [])
    extra = [t for t in vocab.tokens if t not in SPECIAL_SURFACES]
    assert set(extra) >= {"a", "b", "c"}
    assert extra == sorted(extra)
    # first non-special id is 7
    assert vocab.token_to_id[extra[0]] == 7


def oracle_build_vocabulary(corpus, extra_texts):
    """The per-piece set-union build that the corpus word split replaced."""
    seen = set()
    if corpus.documents:
        seen.add("#")
        for doc in corpus.documents.values():
            seen.update(split_words(doc.title))
            seen.update(split_words(doc.section))
            seen.update(split_words(doc.body))
    for text in extra_texts:
        seen.update(split_words(text))
    return tuple(SPECIAL_SURFACES) + tuple(sorted(seen))


@pytest.mark.parametrize("seed", range(5))
def test_build_vocabulary_matches_set_union_oracle(seed):
    rng = random.Random(seed)
    corpus = random_text_corpus(rng, rng.randint(0, 25))
    extra = [random_text(rng) for _ in range(rng.randint(0, 4))]
    assert build_vocabulary(corpus, extra).tokens == oracle_build_vocabulary(corpus, extra)


def test_build_vocabulary_empty_is_specials_only():
    vocab = build_vocabulary(None, [])
    assert vocab.tokens == SPECIAL_SURFACES
    assert vocab.size == 7


def test_punctuation_splitting_rule():
    # hand application of the splitting rule to "Don't stop."
    assert split_words("Don't stop.") == ["don", "'", "t", "stop", "."]
    vocab = build_vocabulary(None, ["Don't stop."])
    extra = set(vocab.tokens) - set(SPECIAL_SURFACES)
    assert extra == {"don", "t", "stop", "'", "."}


def test_encode_splits_special_surfaces_as_text():
    vocab = build_vocabulary(None, ["<docid> a </docid>"])
    lt, docid, gt, a, slash = (vocab.token_to_id[t] for t in ["<", "docid", ">", "a", "/"])
    assert encode(vocab, "<docid> a </docid>") == [lt, docid, gt, a, lt, slash, docid, gt]
    assert layout_tokens(vocab, (DOCID_OPEN, "a", DOCID_CLOSE)) == [DOCID_OPEN, a, DOCID_CLOSE]


def test_encode_empty_and_unknown():
    vocab = build_vocabulary(None, [])
    assert encode(vocab, "") == []
    assert encode(vocab, "zzz") == [UNK]


def test_decode_inverse_and_errors():
    vocab = build_vocabulary(None, ["a"])
    a = vocab.token_to_id["a"]
    assert decode(vocab, [DOCID_OPEN, a, DOCID_CLOSE]) == "<docid> a </docid>"
    assert decode(vocab, []) == ""
    with pytest.raises(InvalidTokenError):
        decode(vocab, [vocab.size])


def test_round_trip_known_text():
    texts = ["don ' t stop .", "a b # c", "x", "yes"]
    vocab = build_vocabulary(None, texts)
    for text in texts:
        assert decode(vocab, encode(vocab, text)) == text
    # structural symbols come from a layout, and decode to their surfaces
    for layout in [(REF_OPEN, "x", REF_CLOSE), (ANSWER_OPEN, "yes")]:
        assert decode(vocab, layout_tokens(vocab, layout)) == layout_text(layout)
    assert layout_text((REF_OPEN, "x", REF_CLOSE)) == "<ref> x </ref>"


def test_round_trip_random_in_vocab_strings():
    rng = random.Random(11)
    words = ["aa", "bb", "cc", ".", ",", "#"]
    vocab = build_vocabulary(None, [" ".join(words)])
    for _ in range(300):
        text = " ".join(rng.choices(words, k=rng.randint(0, 12)))
        normalized = " ".join(split_words(text))
        assert decode(vocab, encode(vocab, text)) == normalized


def test_vocabulary_persistence_round_trip(tmp_path):
    corpus = corpus_from_rows([("1", "Title", "Sec", "some body. more!")])
    vocab = build_vocabulary(corpus, ["extra query"])
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.token_to_id == vocab.token_to_id


def test_build_is_deterministic():
    corpus = corpus_from_rows([("1", "b a", "x", "z y w."), ("2", "c", "", "q p.")])
    v1 = build_vocabulary(corpus, ["hello"])
    v2 = build_vocabulary(corpus, ["hello"])
    assert v1.tokens == v2.tokens


def oracle_encode(vocab, text):
    """Encode chunk by chunk: no word and no lowercasing reaches across whitespace."""
    ids = []
    for chunk in text.split():
        ids.extend(vocab.id_of(tok) for tok in split_words(chunk))
    return ids


# Whitespace str.split() and the regex both honour, including unicode spaces.
_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
           "\u2009", "\u2028", "\u3000"]
_PIECES = list(SPECIAL_SURFACES) + [
    "<DOCID>", "</Docid>", "<unk>.", "(<ref>)", "<docid></docid>", "<answer><answer>", "x<s>",
    "</s>,", "'</ref>'", "word", "Word", "don't", "a#b", "ΑΣ", "ΟΔΟΣ.", "σΣσ", "Σ", "İstanbul",
    "İ", "ß", "ﬁ", "٣٤", "é", "_x_", "—", "#", ".", "<", ">", "/",
]


def test_encode_matches_chunkwise_oracle_on_random_texts():
    rng = random.Random(23)
    vocab = build_vocabulary(None, ["word don ' t a # b istanbul i σσς αε οδος , . ( )"])
    for _ in range(3000):
        pieces = rng.choices(_PIECES, k=rng.randint(0, 10))
        # join with whitespace, or glue neighbouring pieces together
        text = rng.choice(["", " ", "\n"])
        for piece in pieces:
            text += piece + rng.choice(_SPACES + [""] * 4)
        assert encode(vocab, text) == oracle_encode(vocab, text), repr(text)
        # text pieces encode alone as they do in the one string they are written as
        layout = tuple(text.split(rng.choice(["<", "Σ", "\n"])))
        assert layout_tokens(vocab, layout) == encode(vocab, layout_text(layout)), repr(layout)
        assert min(encode(vocab, text), default=UNK) >= UNK


def test_encode_special_surfaces_are_text_in_any_spacing():
    vocab = build_vocabulary(None, ["<docid> </s>"])
    lt, docid, gt, slash, s = (vocab.token_to_id[t] for t in ["<", "docid", ">", "/", "s"])
    assert encode(vocab, "\t<docid>\u3000</s>\n") == [lt, docid, gt, lt, slash, s, gt]
    assert encode(vocab, "<DOCID>") == [lt, docid, gt]
    assert encode(vocab, "<docid><docid>") == [lt, docid, gt, lt, docid, gt]
    assert encode(vocab, "ΑΣ </s> Σ") == oracle_encode(vocab, "ΑΣ </s> Σ")
    assert layout_tokens(vocab, ("ΑΣ", EOS, "Σ")) == [UNK, EOS, UNK]

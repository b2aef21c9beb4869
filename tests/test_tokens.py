import random

import pytest

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

from conftest import corpus_from_rows


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


def test_encode_recognizes_specials():
    vocab = build_vocabulary(None, ["a"])
    a = vocab.token_to_id["a"]
    assert encode(vocab, "<docid> a </docid>") == [DOCID_OPEN, a, DOCID_CLOSE]


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
    texts = ["don ' t stop .", "a b # c", "<ref> x </ref>", "<answer> yes"]
    vocab = build_vocabulary(None, texts)
    for text in texts:
        assert decode(vocab, encode(vocab, text)) == text


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
    """The chunk-by-chunk encode the one-pass split replaced."""
    ids = []
    for chunk in text.split():
        if chunk in SPECIAL_SURFACES:
            ids.append(SPECIAL_SURFACES.index(chunk))
            continue
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


def test_encode_specials_only_as_whole_chunks():
    vocab = build_vocabulary(None, ["docid"])
    docid = vocab.token_to_id["docid"]
    lt, gt = vocab.token_to_id.get("<", UNK), vocab.token_to_id.get(">", UNK)
    assert encode(vocab, "\t<docid>\u3000</s>\n") == [DOCID_OPEN, EOS]
    assert encode(vocab, "<DOCID>") == [lt, docid, gt]
    assert encode(vocab, "<docid><docid>") == [lt, docid, gt, lt, docid, gt]
    assert encode(vocab, "ΑΣ </s> Σ") == oracle_encode(vocab, "ΑΣ </s> Σ")

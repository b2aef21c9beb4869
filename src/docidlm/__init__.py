"""docidlm: generative retrieval and continuous RAG over a DocID trie.

The engine retrieves by generating document identifiers token by token under
prefix-tree constraints, then keeps decoding references and an answer in the
same session. All scoring is generic over the :class:`~docidlm.lm.LmScorer`
interface; a count-based n-gram scorer makes the whole pipeline runnable and
verifiable at desk scale, and a remote adapter lets a served model take the
same slot.
"""

from .constraints import (
    ConstraintState,
    GrammarState,
    MalformedSequenceError,
    Phase,
    Plan,
    allowed_mask,
    scan_state,
    step,
    step_state,
)
from .corpus import (
    Corpus,
    CorpusError,
    Document,
    DuplicateDocIdError,
    GoldRecord,
    UnknownDocIdError,
    build_corpus,
    canonical_docid,
    ingest_corpus,
    load_gold,
    make_document,
    split_sentences,
)
from .decoder import (
    DecodeCost,
    DecodeError,
    GrammarError,
    RagResult,
    RankedDocIds,
    generate_closed_book,
    generate_docid_list,
    generate_rag,
    generate_rag_pipeline,
    parse_rag_trace,
    render_document_tokens,
    score_sequence,
)
from .lm import (
    LmScorer,
    NgramLm,
    RemoteLm,
    RemoteProtocolError,
    RemoteTimeoutError,
    UniformLm,
    VocabularyMismatchError,
    train_ngram,
)
from .metrics import (
    EvalReport,
    TaskCategory,
    accuracy,
    evaluate_run,
    exact_match,
    f1,
    has_answer,
    normalize_answer,
    r_precision,
    recall_at_k,
    rouge_l,
)
from .tokens import (
    ANSWER_OPEN,
    DOCID_CLOSE,
    DOCID_OPEN,
    EOS,
    REF_CLOSE,
    REF_OPEN,
    UNK,
    Vocabulary,
    build_vocabulary,
    decode,
    encode,
    load_vocabulary,
    save_vocabulary,
)
from .training import (
    Bm25Index,
    LexicalOverlapReranker,
    LossBreakdown,
    Task,
    TrainingExample,
    bm25_retrieve,
    build_bm25_index,
    build_reference_lm,
    combined_loss,
    construct_ranked_docid_list,
    docid_list_target,
    make_docid_understanding_examples,
    make_rag_examples,
    make_retrieval_example,
    parse_docid_list_target,
    sequence_loss,
)
from .trie import (
    DocIdTrie,
    ExclusionSet,
    InvalidPrefixError,
    TrieError,
    allowed_continuations,
    build_trie,
    dump_trie,
    exclude,
    load_trie,
)

__version__ = "0.1.0"

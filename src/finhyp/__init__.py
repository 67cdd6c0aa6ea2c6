"""Financial-term hypernym classification from word embeddings.

Terms are embedded by summing token vectors (with OOV replacement),
stacked with hand-crafted and label-distance features, scaled to [-1, 1]
and classified with multinomial logistic regression tuned by stratified
cross-validation. See the CLI (`finhyp --help`) for the runnable flows.
"""
from .augment import (
    AugmentedTerm,
    DefinitionDict,
    FetcherConfig,
    HttpFetcher,
    augment_dataset,
    augment_one,
    fetch_definitions,
    first_sentence,
    match_term,
    normalize,
)
from .distance import BACKEND, levenshtein, nearest
from .embeddings import (
    IN_VOCAB,
    REPLACED,
    ZERO,
    EmbeddingFormatError,
    EmbeddingStore,
    Resolution,
    TermTokens,
    embed_term,
    load_embeddings,
    lookup,
    save_embeddings,
)
from .evaluation import (
    EvalReport,
    accuracy,
    confusion_matrix,
    evaluate,
    macro_f1,
    mean_rank,
    stratified_kfold,
)
from .features import (
    DEFAULT_INDICATORS,
    FeatureConfig,
    HandcraftedConfig,
    LabelSet,
    MinMaxScaler,
    assemble_features,
    build_features,
    feature_width,
    handcrafted,
)
from .model import (
    LogRegModel,
    TrainConfig,
    grid_search,
    load_model,
    predict_proba,
    rank_labels,
    save_model,
    train,
)
from .oov import NgramIndex, OOVStrategy, best_ngram_match, char_ngrams
from .pipeline import (
    PRESETS,
    DataError,
    PipelineConfig,
    apply_preset,
    load_config,
    load_dataset,
    run_augment_apply,
    run_augment_fetch,
    run_cv,
    run_inspect_oov,
    run_predict,
    run_train,
)
from .synth import CLASS_PROFILE, SynthData, apportion, generate, write_dataset

__version__ = "0.1.0"

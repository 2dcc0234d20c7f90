"""Kernel-based automated essay scoring.

Essays are compared with a blended character n-gram intersection kernel and
with intersection kernels over super-word-embedding histograms; the two
similarity matrices are fused by summation and regressed with nu-SVR in the
dual.  Evaluation follows repeated cross-validation (in-domain) and
source-to-target transfer (cross-domain) protocols scored with quadratic
weighted kappa.
"""

from .boswe import Codebook, boswe_kernel_matrix, fit_codebook
from .corpus import (
    ASAP_SCORE_RANGES,
    Essay,
    FoldPlan,
    ScoreRange,
    make_folds,
    make_transfer_split,
    parse_asap_tsv,
    scale_score,
    unscale_score,
)
from .embeddings import (
    EmbeddingModel,
    load_word2vec_binary,
    tokenize,
)
from .errors import (
    BinaryFormatError,
    KaesError,
    KernelMismatchError,
    ScoreValidationError,
    TsvParseError,
)
from .fusion import sum_kernels
from .harness import (
    ExperimentConfig,
    ResultCell,
    ResultTable,
    ScoringModel,
    emit_report,
    load_model,
    run_cross_domain,
    run_in_domain,
    save_model,
    table_from_csv,
)
from .metrics import QwkReport, average_qwk, qwk
from .string_kernel import (
    KernelMatrix,
    kernel_matrix,
    load_kernel_matrix,
    normalize_kernel,
    normalize_text,
    save_kernel_matrix,
    self_similarities,
)
from .svr import (
    SvrConfig,
    SvrModel,
    predict,
    train_nu_svr,
)

__version__ = "0.1.0"

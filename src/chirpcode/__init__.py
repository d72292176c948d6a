"""Sparse audio coding on a strided Gammachirp dictionary.

Encode signals with the Locally Competitive Algorithm, adapt the filters'
modulation parameters (ALCA) and centre frequencies (ALCA-CF) by gradient
descent on the coding energy, and benchmark reconstruction quality against
sparsity.
"""

from .adapt import (
    AdaptConfig,
    AdamaxState,
    EpochStats,
    ParamBounds,
    ParamGradients,
    adamax_step,
    adapt_corpus,
    default_bounds,
    dictionary_jacobians,
    energy_gradient,
    write_history_csv,
)
from .audio import (
    CorpusManifest,
    ManifestEntry,
    Utterance,
    load_corpus,
    load_wav,
    parse_manifest,
    save_wav,
)
from .dictionary import (
    Dictionary,
    GammachirpParams,
    GramKernel,
    apply_kernel,
    erb,
    gram_kernel,
    init_gammatone_dictionary,
    load_dictionary,
    make_dictionary,
    project,
    reconstruct,
    save_dictionary,
)
from .errors import (
    AudioIngestError,
    ChirpcodeError,
    CodeError,
    ConfigError,
    GradientError,
    OptimizerError,
    ParameterError,
    SignalError,
    SolverError,
    SynthesisError,
)
from .lca import (
    LcaConfig,
    LcaState,
    SparseCode,
    encode,
    encode_many,
    energy,
    export_events_csv,
    lca_step,
    load_code,
    save_code,
    threshold,
    trace_energy,
)
from .metrics import (
    BenchmarkReport,
    DictionarySummary,
    UtteranceReport,
    benchmark,
    snr,
    sparsity,
)

__version__ = "0.1.0"

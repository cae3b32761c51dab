"""Activation-aware adaptive-codebook 4-bit weight quantization."""

from .codebooks import (
    AaacConfig,
    LearnResult,
    importance,
    init_tables,
    kmeans_update,
    learn,
    select_tables,
    weighted_error,
)
from .grids import (
    INT4,
    NVFP4,
    BaseFormat,
    base_table,
    compute_scales,
    get_format,
    round_bf16,
    round_e4m3,
)
from .metrics import (
    EvalReport,
    LayerMetrics,
    compare,
    gap_recovery,
    layer_output_mse,
    simulate_w4a8,
)
from .packfmt import PackedLayer, pack, packed_size, read_pack, unpack
from .quantizers import (
    dequantize,
    if4_quantize,
    recon,
    recon_codes,
    rtn_quantize,
)
from .tensors import (
    LayerBundle,
    SynthSpec,
    save_tensor_archive,
    synth_layer,
)

__version__ = "0.1.0"

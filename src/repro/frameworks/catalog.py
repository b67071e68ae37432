"""Framework catalogs: PyTorch 2.3.1, TensorFlow 2.16.2, vLLM 0.6.3,
Transformers 4.42.3 (the versions in paper Table 1).

Library sizes, function counts, and fatbin element counts follow the paper's
reported magnitudes (Tables 2/3, Fig. 1): e.g. ``libtorch_cuda.so`` is 841 MB
with 42 MB of CPU code across 78K functions and 729 MB of GPU code across
2,324 elements (387 cubins x 6 architectures).  Feature tags reproduce the
workload-dependent library sets: the cuDNN convolution family loads only for
conv models (hence MobileNetV2's 113 libraries vs the Transformer's 154, and
the train-only cuDNN libraries explaining 113 vs 111).

PyTorch and Transformers share one torch build (build id ``torch-2.3.1``) so
their ``libtorch_cuda.so`` is byte-identical - the premise of the paper's
Table 4 cross-workload comparison - while vLLM bundles a different torch
build and is excluded there, as in the paper.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from repro.cuda.arch import SHIPPED_ARCHITECTURES
from repro.errors import ConfigurationError
from repro.frameworks.genlib import generated_library, generation_identity
from repro.frameworks.ops import OpKind
from repro.frameworks.spec import Framework, FrameworkSpec, LibrarySpec, MemoryPolicy
from repro.utils.rng import RngStream

FRAMEWORK_NAMES = ("pytorch", "tensorflow", "vllm", "transformers")

# Op kinds torch-family compute libraries implement natively.
_TORCH_NATIVE_KINDS = (
    OpKind.GEMM,
    OpKind.ELEMENTWISE,
    OpKind.ACTIVATION,
    OpKind.SOFTMAX,
    OpKind.LAYERNORM,
    OpKind.RMSNORM,
    OpKind.POOL,
    OpKind.EMBEDDING,
    OpKind.ATTENTION,
    OpKind.REDUCE,
    OpKind.DROPOUT,
    OpKind.LOSS,
    OpKind.OPTIMIZER,
    OpKind.RNG,
    OpKind.BATCHNORM,
    OpKind.ROPE,
    OpKind.SAMPLING,
)
_TORCH_KIND_WEIGHTS = (
    3.0,  # GEMM: cutlass-style variant explosion
    2.0,  # ELEMENTWISE
    1.2,  # ACTIVATION
    0.8,  # SOFTMAX
    0.8,  # LAYERNORM
    0.5,  # RMSNORM
    0.8,  # POOL
    0.6,  # EMBEDDING
    1.6,  # ATTENTION
    1.2,  # REDUCE
    0.5,  # DROPOUT
    0.5,  # LOSS
    0.8,  # OPTIMIZER
    0.4,  # RNG
    0.9,  # BATCHNORM
    0.3,  # ROPE
    0.4,  # SAMPLING
)


# ---------------------------------------------------------------------------
# NVIDIA vendor libraries (proprietary: analyzed from binaries only)
# ---------------------------------------------------------------------------


def nvidia_libraries() -> tuple[LibrarySpec, ...]:
    """The CUDA-ecosystem libraries ML frameworks bundle via pip wheels."""
    conv = frozenset({"conv"})
    conv_train = frozenset({"conv", "train"})
    return (
        # cuDNN dispatcher: CPU-side heuristics only, no fatbin of its own.
        LibrarySpec(
            "libcudnn.so.8", file_mb=110, text_mb=38, n_functions=21_000,
            op_kinds=(OpKind.CONV2D, OpKind.DEPTHWISE_CONV, OpKind.BATCHNORM),
            op_pool_fraction=0.04, op_pool_used_fraction=0.2,
            requires=conv, proprietary=True,
        ),
        LibrarySpec(
            "libcudnn_cnn_infer.so.8", file_mb=420, text_mb=18,
            n_functions=6_000, gpu_mb=330, n_cubins=542,
            op_kinds=(OpKind.CONV2D, OpKind.DEPTHWISE_CONV),
            op_kind_weights=(0.7, 0.3),
            requires=conv, proprietary=True,
        ),
        LibrarySpec(
            "libcudnn_cnn_train.so.8", file_mb=260, text_mb=12,
            n_functions=4_000, gpu_mb=196, n_cubins=342,
            op_kinds=(OpKind.CONV2D, OpKind.DEPTHWISE_CONV),
            op_kind_weights=(0.7, 0.3),
            requires=conv_train, proprietary=True,
        ),
        LibrarySpec(
            "libcudnn_ops_infer.so.8", file_mb=130, text_mb=8,
            n_functions=3_500, gpu_mb=96, n_cubins=157,
            op_kinds=(OpKind.BATCHNORM, OpKind.POOL, OpKind.ACTIVATION),
            requires=conv, proprietary=True,
        ),
        LibrarySpec(
            "libcudnn_ops_train.so.8", file_mb=90, text_mb=6,
            n_functions=2_500, gpu_mb=65, n_cubins=108,
            op_kinds=(OpKind.BATCHNORM, OpKind.ACTIVATION),
            requires=conv_train, proprietary=True,
        ),
        LibrarySpec(
            "libcublas.so.12", file_mb=250, text_mb=20, n_functions=9_000,
            gpu_mb=230, n_cubins=258, op_kinds=(OpKind.GEMM,),
            proprietary=True,
        ),
        LibrarySpec(
            "libcublasLt.so.12", file_mb=371, text_mb=17, n_functions=8_000,
            gpu_mb=290, n_cubins=274, op_kinds=(OpKind.GEMM,),
            proprietary=True,
        ),
        # cuSPARSE/cuFFT load with the frameworks but none of the evaluated
        # models exercises them: 100% of their matching-arch elements are
        # Reason-II bloat (paper Fig. 5b: every library loses >80% of
        # elements).
        LibrarySpec(
            "libcusparse.so.12", file_mb=165, text_mb=9, n_functions=6_000,
            gpu_mb=150, n_cubins=116, op_kinds=(OpKind.REDUCE,),
            proprietary=True,
        ),
        LibrarySpec(
            "libcufft.so.11", file_mb=95, text_mb=5, n_functions=5_000,
            gpu_mb=80, n_cubins=93, op_kinds=(OpKind.ELEMENTWISE,),
            proprietary=True,
        ),
        LibrarySpec(
            "libcurand.so.10", file_mb=42, text_mb=3, n_functions=2_000,
            gpu_mb=35, n_cubins=41, op_kinds=(OpKind.RNG,),
            proprietary=True,
        ),
        LibrarySpec(
            "libnccl.so.2", file_mb=95, text_mb=10, n_functions=4_000,
            gpu_mb=78, n_cubins=25, op_kinds=(OpKind.COLLECTIVE,),
            proprietary=True,
        ),
        LibrarySpec("libnvrtc.so.12", file_mb=40, text_mb=12, n_functions=12_000,
                    proprietary=True),
        LibrarySpec("libcudart.so.12", file_mb=3.6, text_mb=1.8,
                    n_functions=1_800, proprietary=True),
        LibrarySpec("libcupti.so.12", file_mb=8, text_mb=4, n_functions=2_200,
                    proprietary=True),
        LibrarySpec("libnvToolsExt.so.1", file_mb=0.12, text_mb=0.05,
                    n_functions=120, proprietary=True),
        LibrarySpec("libnvjitlink.so.12", file_mb=30, text_mb=10,
                    n_functions=9_000, proprietary=True),
    )


NVIDIA_GPU_ROUTING = {
    OpKind.CONV2D: {
        "fwd": ("libcudnn_cnn_infer.so.8",),
        "bwd": ("libcudnn_cnn_train.so.8",),
    },
    OpKind.DEPTHWISE_CONV: {
        "fwd": ("libcudnn_cnn_infer.so.8",),
        "bwd": ("libcudnn_cnn_train.so.8",),
    },
    OpKind.BATCHNORM: {
        "fwd": ("libcudnn_ops_infer.so.8",),
        "bwd": ("libcudnn_ops_train.so.8",),
    },
    OpKind.COLLECTIVE: {"any": ("libnccl.so.2",)},
}


# ---------------------------------------------------------------------------
# Generic system / Python-environment libraries
# ---------------------------------------------------------------------------

_SYSTEM_LIB_NAMES = (
    "libc.so.6", "libstdc++.so.6", "libm.so.6", "libpthread.so.0",
    "libdl.so.2", "librt.so.1", "ld-linux-x86-64.so.2", "libgcc_s.so.1",
    "libz.so.1", "libbz2.so.1.0", "liblzma.so.5", "libffi.so.8",
    "libexpat.so.1", "libssl.so.3", "libcrypto.so.3", "libuuid.so.1",
    "libsqlite3.so.0", "libreadline.so.8", "libtinfo.so.6", "libgomp.so.1",
    "libnuma.so.1", "libopenblas.so.0", "libgfortran.so.5", "libquadmath.so.0",
)

_PYTHON_EXT_NAMES = (
    "_ssl.cpython-311.so", "_hashlib.cpython-311.so", "_json.cpython-311.so",
    "_pickle.cpython-311.so", "_struct.cpython-311.so", "array.cpython-311.so",
    "math.cpython-311.so", "_socket.cpython-311.so", "select.cpython-311.so",
    "_posixsubprocess.cpython-311.so", "zlib.cpython-311.so",
    "_multiarray_umath.cpython-311.so", "_multiarray_tests.cpython-311.so",
    "lapack_lite.cpython-311.so", "_umath_linalg.cpython-311.so",
    "fftpack_lite.cpython-311.so", "mtrand.cpython-311.so",
    "bit_generator.cpython-311.so", "_bounded_integers.cpython-311.so",
)

_VISION_LIB_NAMES = ("libjpeg.so.9", "libpng16.so.16", "libwebp.so.7",
                     "libtiff.so.6")

_TEXT_LIB_NAMES = ("tokenizers.abi3.so", "libsentencepiece.so.0",
                   "_regex.cpython-311.so", "libicuuc.so.70")


def small_library(
    name: str,
    requires: frozenset[str] = frozenset(),
    file_mb: float | None = None,
    n_functions: int | None = None,
) -> LibrarySpec:
    """A generic (non-ML) library with deterministic per-name properties.

    System libraries are mostly *used*: the paper's Fig. 5a shows many
    libraries with only 0-40% CPU code reduction, which here comes from a
    large infra pool (0.55-0.92 of functions) nearly fully touched at
    startup.
    """
    rng = RngStream("smalllib", name)
    u = float(rng.uniform())
    v = float(rng.uniform())
    if file_mb is None:
        file_mb = round(0.3 + 7.0 * u * u, 2)
    if n_functions is None:
        n_functions = int(120 + 700 * v)
    text_mb = round(file_mb * (0.22 + 0.2 * float(rng.uniform())), 3)
    return LibrarySpec(
        name,
        file_mb=file_mb,
        text_mb=text_mb,
        n_functions=n_functions,
        infra_fraction=round(0.5 + 0.38 * float(rng.uniform()), 3),
        infra_used_fraction=round(0.9 + 0.09 * float(rng.uniform()), 3),
        requires=requires,
    )


def _generated_small_libs(prefix: str, count: int,
                          requires: frozenset[str] = frozenset()) -> list[LibrarySpec]:
    return [
        small_library(f"{prefix}_{i:03d}.cpython-311.so", requires=requires)
        for i in range(count)
    ]


def base_system_libraries(extra_py_exts: int) -> list[LibrarySpec]:
    """The always-loaded system + Python environment libraries."""
    specs = [small_library(n) for n in _SYSTEM_LIB_NAMES]
    # libopenblas and libcrypto are the big generic outliers.
    specs = [
        s if s.soname != "libopenblas.so.0" else LibrarySpec(
            "libopenblas.so.0", file_mb=35, text_mb=22, n_functions=8_000,
            infra_fraction=0.35, infra_used_fraction=0.9,
        )
        for s in specs
    ]
    specs.extend(small_library(n) for n in _PYTHON_EXT_NAMES)
    specs.extend(_generated_small_libs("py_ext", extra_py_exts))
    return specs


def vision_libraries() -> list[LibrarySpec]:
    return [small_library(n, requires=frozenset({"vision"}))
            for n in _VISION_LIB_NAMES]


def text_libraries(extra: int) -> list[LibrarySpec]:
    specs = [small_library(n, requires=frozenset({"text"}))
             for n in _TEXT_LIB_NAMES]
    specs.extend(
        _generated_small_libs("text_ext", extra, requires=frozenset({"text"}))
    )
    return specs


# ---------------------------------------------------------------------------
# PyTorch
# ---------------------------------------------------------------------------


def torch_core_libraries(version: str, cuda_mb: float = 841,
                         cuda_gpu_mb: float = 729,
                         cuda_cubins: int = 387) -> tuple[LibrarySpec, ...]:
    """The libtorch family (version-parameterized for the vLLM bundle)."""
    return (
        LibrarySpec(
            "libtorch_cuda.so", file_mb=cuda_mb, text_mb=42,
            n_functions=78_000, gpu_mb=cuda_gpu_mb, n_cubins=cuda_cubins,
            op_kinds=_TORCH_NATIVE_KINDS, op_kind_weights=_TORCH_KIND_WEIGHTS,
            infra_fraction=0.035, op_pool_fraction=0.012,
            op_pool_used_fraction=0.14,
        ),
        LibrarySpec(
            "libtorch_cpu.so", file_mb=482, text_mb=300, n_functions=330_000,
            op_kinds=_TORCH_NATIVE_KINDS,
            infra_fraction=0.030, op_pool_fraction=0.014,
            op_pool_used_fraction=0.12,
        ),
        LibrarySpec(
            "libtorch_python.so", file_mb=210, text_mb=40, n_functions=95_000,
            op_kinds=_TORCH_NATIVE_KINDS,
            infra_fraction=0.040, op_pool_fraction=0.010,
            op_pool_used_fraction=0.12,
        ),
        LibrarySpec(
            "libc10.so", file_mb=6.5, text_mb=4.0, n_functions=12_000,
            infra_fraction=0.30, infra_used_fraction=0.85,
        ),
        LibrarySpec(
            "libc10_cuda.so", file_mb=4.2, text_mb=2.5, n_functions=6_000,
            infra_fraction=0.28, infra_used_fraction=0.85,
        ),
        LibrarySpec("libtorch.so", file_mb=0.6, text_mb=0.1, n_functions=300,
                    infra_fraction=0.5, infra_used_fraction=0.9),
        LibrarySpec("libshm.so", file_mb=0.9, text_mb=0.3, n_functions=800,
                    infra_fraction=0.4),
        LibrarySpec("libcaffe2_nvrtc.so", file_mb=1.2, text_mb=0.5,
                    n_functions=1_000, infra_fraction=0.3),
    )


def _torch_routing() -> dict:
    routing = {
        kind: {"any": ("libtorch_cuda.so",)} for kind in _TORCH_NATIVE_KINDS
    }
    routing[OpKind.GEMM] = {
        "any": ("libcublas.so.12", "libcublasLt.so.12", "libtorch_cuda.so")
    }
    routing[OpKind.RNG] = {"any": ("libcurand.so.10", "libtorch_cuda.so")}
    routing.update(NVIDIA_GPU_ROUTING)
    return routing


@lru_cache(maxsize=None)
def pytorch_spec() -> FrameworkSpec:
    libraries = (
        *torch_core_libraries("2.3.1"),
        *nvidia_libraries(),
        *base_system_libraries(extra_py_exts=42),
        *vision_libraries(),
        *text_libraries(extra=46),
    )
    return FrameworkSpec(
        name="pytorch",
        version="2.3.1",
        libraries=libraries,
        memory=MemoryPolicy(kind="on_demand", python_overhead_mb=900),
        kernel_routing=_torch_routing(),
        cpu_dispatch_libs=("libtorch_python.so", "libtorch_cpu.so",
                           "libtorch_cuda.so"),
        cpu_tax_fraction=0.45,
        gpu_efficiency=0.18,
        kernels_per_op=6,
        import_time_s=3.5,
        features=frozenset({"cuda"}),
    )


# ---------------------------------------------------------------------------
# TensorFlow
# ---------------------------------------------------------------------------

_TF_KINDS = tuple(k for k in _TORCH_NATIVE_KINDS if k not in
                  (OpKind.RMSNORM, OpKind.ROPE, OpKind.SAMPLING)) + (
    OpKind.CONV2D, OpKind.DEPTHWISE_CONV,
)


@lru_cache(maxsize=None)
def tensorflow_spec() -> FrameworkSpec:
    tf_core = (
        LibrarySpec(
            "libtensorflow_cc.so.2", file_mb=965, text_mb=300,
            n_functions=670_000, gpu_mb=298, n_cubins=273,
            op_kinds=_TF_KINDS,
            # TensorFlow's "used bloat" (paper §5): a far larger share of its
            # CPU code executes without contributing - big infra pool, high
            # per-op usage, hence only ~51% function removal in tf_cc.
            infra_fraction=0.28, infra_used_fraction=0.95,
            op_pool_fraction=0.045, op_pool_used_fraction=0.75,
            hot_function_weight=0.9,
        ),
        LibrarySpec(
            "libtensorflow_framework.so.2", file_mb=220, text_mb=80,
            n_functions=120_000, op_kinds=_TF_KINDS,
            infra_fraction=0.18, infra_used_fraction=0.9,
            op_pool_fraction=0.02, op_pool_used_fraction=0.5,
            hot_function_weight=1.0,
        ),
        LibrarySpec(
            "_pywrap_tensorflow_internal.so", file_mb=60, text_mb=30,
            n_functions=30_000, op_kinds=_TF_KINDS,
            infra_fraction=0.2, op_pool_fraction=0.015,
            op_pool_used_fraction=0.5,
        ),
        LibrarySpec(
            "libcusolver.so.11", file_mb=150, text_mb=8, n_functions=5_000,
            gpu_mb=105, n_cubins=204, op_kinds=(OpKind.GEMM,),
            proprietary=True,
        ),
    )
    pywrap = tuple(
        small_library(f"_pywrap_tf_{name}.so")
        for name in (
            "checkpoint_reader", "events_writer", "file_io", "stat_summarizer",
            "kernel_registry", "graph_analyzer", "transform_graph",
            "device_lib", "py_func", "quantize_training", "util_port",
            "stacktrace_handler", "tfe", "dtensor_device", "parallel_device",
            "profiler_session", "debug_events_writer", "record_io",
            "sanitizers", "toco_api", "mlir", "flags", "saved_model",
            "function_lib", "composite_tensor", "bfloat16", "fast_tensor_util",
            "tensor_float_32", "determinism", "cluster_resolver", "ops_util",
            "tpu_embedding", "string_ops", "sparse_core", "weak_tensor",
        )
    )
    routing = {kind: {"any": ("libtensorflow_cc.so.2",)} for kind in _TF_KINDS}
    routing[OpKind.GEMM] = {
        "any": ("libcublas.so.12", "libcublasLt.so.12", "libtensorflow_cc.so.2")
    }
    routing[OpKind.RNG] = {"any": ("libcurand.so.10",)}
    routing.update(NVIDIA_GPU_ROUTING)
    return FrameworkSpec(
        name="tensorflow",
        version="2.16.2",
        libraries=(
            *tf_core,
            *pywrap,
            *nvidia_libraries(),
            *base_system_libraries(extra_py_exts=151),
            *vision_libraries(),
            *text_libraries(extra=150),
        ),
        memory=MemoryPolicy(kind="pool_fraction", pool_fraction=0.862,
                            python_overhead_mb=1300),
        kernel_routing=routing,
        cpu_dispatch_libs=("_pywrap_tensorflow_internal.so",
                           "libtensorflow_framework.so.2",
                           "libtensorflow_cc.so.2"),
        cpu_tax_fraction=0.10,
        gpu_efficiency=0.90,
        kernels_per_op=6,
        import_time_s=9.0,
        features=frozenset({"cuda"}),
    )


# ---------------------------------------------------------------------------
# vLLM (bundles its own torch 2.4 build - different libtorch_cuda.so)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def vllm_spec() -> FrameworkSpec:
    vllm_native = (
        LibrarySpec(
            "libvllm_C.so", file_mb=85, text_mb=10, n_functions=8_000,
            gpu_mb=60, n_cubins=30,
            op_kinds=(OpKind.PAGED_ATTENTION, OpKind.SAMPLING, OpKind.RMSNORM,
                      OpKind.ROPE),
        ),
        LibrarySpec(
            "libvllm_moe_C.so", file_mb=40, text_mb=4, n_functions=2_500,
            gpu_mb=28, n_cubins=16, op_kinds=(OpKind.GEMM,),
        ),
        LibrarySpec(
            "libvllm_flash_attn_C.so", file_mb=160, text_mb=6,
            n_functions=3_000, gpu_mb=130, n_cubins=36,
            op_kinds=(OpKind.ATTENTION, OpKind.PAGED_ATTENTION),
        ),
        LibrarySpec("libtriton.so", file_mb=90, text_mb=55,
                    n_functions=60_000, infra_fraction=0.12),
        LibrarySpec("_raylet.so", file_mb=45, text_mb=20, n_functions=30_000,
                    infra_fraction=0.15),
        LibrarySpec("libarrow.so.1500", file_mb=60, text_mb=30,
                    n_functions=25_000, infra_fraction=0.12),
    )
    routing = _torch_routing()
    routing[OpKind.PAGED_ATTENTION] = {
        "any": ("libvllm_C.so", "libvllm_flash_attn_C.so")
    }
    routing[OpKind.ATTENTION] = {"any": ("libvllm_flash_attn_C.so",)}
    routing[OpKind.SAMPLING] = {"any": ("libvllm_C.so",)}
    routing[OpKind.RMSNORM] = {"any": ("libvllm_C.so",)}
    routing[OpKind.ROPE] = {"any": ("libvllm_C.so",)}
    return FrameworkSpec(
        name="vllm",
        version="0.6.3",
        libraries=(
            *torch_core_libraries("2.4.0-vllm", cuda_mb=861, cuda_gpu_mb=747,
                                  cuda_cubins=393),
            *nvidia_libraries(),
            *vllm_native,
            *base_system_libraries(extra_py_exts=89),
            *text_libraries(extra=9),
        ),
        memory=MemoryPolicy(kind="utilization_target", pool_fraction=0.9,
                            python_overhead_mb=1600),
        kernel_routing=routing,
        cpu_dispatch_libs=("libtorch_python.so", "libtorch_cpu.so",
                           "libtorch_cuda.so"),
        cpu_tax_fraction=0.3,
        gpu_efficiency=0.5,
        kernels_per_op=4,
        import_time_s=24.0,
        features=frozenset({"cuda", "llm"}),
    )


# ---------------------------------------------------------------------------
# HuggingFace Transformers (shares the PyTorch build's torch libraries)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def transformers_spec() -> FrameworkSpec:
    return FrameworkSpec(
        name="transformers",
        version="4.42.3",
        libraries=(
            *torch_core_libraries("2.3.1"),
            *nvidia_libraries(),
            *base_system_libraries(extra_py_exts=32),
            *text_libraries(extra=0),
        ),
        memory=MemoryPolicy(kind="on_demand", python_overhead_mb=1100),
        kernel_routing=_torch_routing(),
        cpu_dispatch_libs=("libtorch_python.so", "libtorch_cpu.so",
                           "libtorch_cuda.so"),
        cpu_tax_fraction=0.6,
        gpu_efficiency=0.25,
        kernels_per_op=4,
        import_time_s=7.0,
        features=frozenset({"cuda"}),
    )


_SPECS = {
    "pytorch": pytorch_spec,
    "tensorflow": tensorflow_spec,
    "vllm": vllm_spec,
    "transformers": transformers_spec,
}

#: Build id per framework: PyTorch and Transformers share one torch build;
#: vLLM ships its own (paper §4.3).
_BUILD_IDS = {
    "pytorch": "torch-2.3.1",
    "transformers": "torch-2.3.1",
    "vllm": "torch-2.4.0-vllm",
    "tensorflow": "tf-2.16.2",
}

#: Library specs identical across torch-family frameworks are generated with
#: the shared build id so PyTorch and Transformers literally share bytes.
_SHARED_TORCH_SONAMES = {
    s.soname for s in torch_core_libraries("2.3.1")
} | {s.soname for s in nvidia_libraries()} | {
    s.soname for s in base_system_libraries(extra_py_exts=0)
} | {s.soname for s in text_libraries(extra=0)}


def build_id_for(framework: str, soname: str) -> str:
    """The generation identity of one library within a framework bundle."""
    if framework in ("pytorch", "transformers") and soname in _SHARED_TORCH_SONAMES:
        return "torch-2.3.1"
    return _BUILD_IDS[framework]


@lru_cache(maxsize=None)
def framework_build_fingerprint(
    name: str,
    scale: float = 1.0,
    archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
) -> str:
    """A process-stable digest of a framework build's generation inputs.

    Every library a framework bundle generates is a pure function of its
    :func:`~repro.frameworks.genlib.generation_identity` (generator
    version, build id, soname, frozen spec, scale, arch list); hashing the
    identities of the whole bundle therefore fingerprints the framework
    *build*.  Two processes that would generate byte-identical library sets
    produce equal fingerprints, and any change to the generator version, a
    library spec, the build ids, the scale, or the shipped architectures
    changes it.  The disk tier of the pipeline cache keys entries on this
    so persisted reports never survive a framework-build change.
    """
    if name not in _SPECS:
        raise ConfigurationError(
            f"unknown framework {name!r}; known: {FRAMEWORK_NAMES}"
        )
    from repro.core.serialize import stable_digest

    spec = _SPECS[name]()
    return stable_digest(
        name,
        spec.version,
        tuple(
            generation_identity(
                lib_spec, build_id_for(name, lib_spec.soname), scale, archs
            )
            for lib_spec in spec.libraries
        ),
    )


_FRAMEWORK_CACHE: dict[tuple, Framework] = {}

#: Serializes memo fills: concurrent callers (federation shards, server
#: workers) must observe ONE instance per build key - identity checks like
#: :func:`is_canonical_build` and :func:`build_key_for` depend on it - and
#: must never pay the generation cost twice.
_FRAMEWORK_LOCK = threading.RLock()


def get_framework(
    name: str,
    scale: float = 1.0,
    archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
) -> Framework:
    """Generate (or fetch cached) a framework's full library set."""
    if name not in _SPECS:
        raise ConfigurationError(
            f"unknown framework {name!r}; known: {FRAMEWORK_NAMES}"
        )
    key = (name, scale, tuple(archs))
    fw = _FRAMEWORK_CACHE.get(key)
    if fw is not None:
        return fw
    with _FRAMEWORK_LOCK:
        fw = _FRAMEWORK_CACHE.get(key)
        if fw is not None:
            return fw
        spec = _SPECS[name]()
        libraries = {
            lib_spec.soname: generated_library(
                lib_spec, build_id_for(name, lib_spec.soname), scale, archs
            )
            for lib_spec in spec.libraries
        }
        fw = Framework(spec=spec, libraries=libraries, scale=scale)
        _FRAMEWORK_CACHE[key] = fw
        return fw


def clear_framework_cache() -> None:
    _FRAMEWORK_CACHE.clear()


def build_key_for(
    framework: Framework,
) -> tuple[str, float, tuple[int, ...]] | None:
    """The ``(name, scale, archs)`` generation key of a catalog build.

    A memo-table identity scan: returns the key another process (a
    snapshot or checkpoint reader) can feed back into :func:`get_framework`
    to regenerate byte-identical libraries, or ``None`` for instances that
    did not come out of the catalog memo (hand-built specs, orphans of
    :func:`clear_framework_cache`) - those cannot be re-derived elsewhere.
    """
    for key, cached in _FRAMEWORK_CACHE.items():
        if cached is framework:
            return key
    return None


def is_canonical_build(framework: Framework) -> bool:
    """True iff ``framework`` is the memoized default-archs catalog build.

    A pure memo-table peek: never triggers a build.  Any canonical
    instance necessarily came out of :func:`get_framework` and therefore
    sits in the memo under the default-archs key; custom specs, ablation
    arch lists, and instances orphaned by :func:`clear_framework_cache`
    all fail the identity check.
    """
    key = (framework.name, framework.scale, tuple(SHIPPED_ARCHITECTURES))
    return _FRAMEWORK_CACHE.get(key) is framework

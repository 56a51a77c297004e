#pragma once

/// \file gemm_kernels.hpp
/// The ISA variants of the GEMM kernels (private to adaflow_nn). Each is one
/// build of gemm_kernels.cpp; gemm.cpp picks one per process.

#include "adaflow/nn/gemm.hpp"

namespace adaflow::nn::baseline {
/// The compiler's baseline ISA: SSE2 on x86-64, 4 lanes.
extern const GemmKernels kKernels;
}  // namespace adaflow::nn::baseline

namespace adaflow::nn::avx2 {
/// AVX2, 8 lanes, no FMA. Defined only when ADAFLOW_GEMM_AVX2 is set.
extern const GemmKernels kKernels;
}  // namespace adaflow::nn::avx2

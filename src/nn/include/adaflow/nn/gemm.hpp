#pragma once

/// \file gemm.hpp
/// Small row-major GEMM kernels shared by Conv2d (im2col) and Linear.
///
/// Numeric contract: every output is bit-identical to the naive triple loop.
/// The kernels tile outputs in registers and vectorise across independent
/// outputs, but never reorder a reduction:
/// - each output accumulates its products in ascending k order;
/// - gemm_nn / gemm_tn add into C directly and skip exactly the products
///   whose A element is zero (quantized weights often are), so a skipped
///   product never turns a -0 in C into +0;
/// - gemm_nt sums each dot product from +0 and adds it to C once.
/// adaflow_nn builds with -ffp-contract=off, so no multiply-add is fused.
/// The reason is the library cache: it is keyed on the model topology, not
/// on this code, and any drift in the trained weights would serve stale
/// tables silently.

#include <cstdint>

namespace adaflow::nn {

/// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);

/// C[M,N] += A[M,K] * B[N,K]^T
void gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);

/// C[M,N] += A[K,M]^T * B[K,N]
void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);

}  // namespace adaflow::nn

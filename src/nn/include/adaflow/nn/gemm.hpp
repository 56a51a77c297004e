#pragma once

/// \file gemm.hpp
/// Small row-major GEMM kernels shared by Conv2d and Linear, and the
/// per-channel reductions of BatchNorm.
///
/// Numeric contract: every output is bit-identical to the naive triple loop.
/// The kernels tile outputs in registers and vectorise across independent
/// outputs, but never reorder a reduction:
/// - each output accumulates its products in ascending k order;
/// - gemm_nn / gemm_tn add into C directly and skip exactly the products
///   whose A element is zero (quantized weights often are), so a skipped
///   product never turns a -0 in C into +0;
/// - gemm_nt sums each dot product from +0 and adds it to C once. Its B
///   operand is a set of row views (NtRows), so Conv2d's weight gradient
///   reads the input image in place instead of an im2col copy.
/// adaflow_nn builds with -ffp-contract=off, so no multiply-add is fused.
///
/// The kernels come from one source built once per ISA variant: the
/// baseline (SSE2 on x86-64, 4 lanes) and, on x86, AVX2 (8 lanes, without
/// FMA). Each process runs the widest variant its CPU supports. A lane
/// performs the same multiply and add as the scalar loop, so the variants
/// differ in speed only, never in bits.
///
/// The reason for the contract is the library cache: it is keyed on the
/// model topology, not on this code, and any drift in the trained weights
/// would serve stale tables silently.

#include <cstdint>

namespace adaflow::nn {

/// C[M,N] += A[M,K] * B[K,N]
void gemm_nn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);

/// C[M,N] += A[M,K] * B[N,K]^T
void gemm_nt(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);

/// The B operand of gemm_nt as N row views of K = height * width elements:
/// element k = h * width + w of row j is base[off[j] + h * pitch + w * step].
/// A contiguous [N, K] matrix is height 1, width K, off[j] = j * K. Conv2d's
/// weight gradient views the (zero-bordered) input image: row (c, kh, kw)
/// starts at (c * H + kh) * W + kw, pitch = stride * W and step = stride.
struct NtRows {
  const float* base;
  const std::int64_t* off;  ///< N row offsets
  std::int64_t height;
  std::int64_t width;
  std::int64_t pitch;
  std::int64_t step;

  std::int64_t k_count() const { return height * width; }
};

/// C[M,N] += A[M,K] * B^T with B given as row views; K = b.k_count().
void gemm_nt(std::int64_t m_count, std::int64_t n_count, const float* a, const NtRows& b,
             float* c);

/// C[M,N] += A[K,M]^T * B[K,N]
void gemm_tn(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);

/// BatchNorm's per-channel reductions over x[(n * channels + c) * inner + i]
/// (rank 4 is [N, C, H*W], rank 2 is [N, C, 1]). Each channel is one serial
/// double chain from +0 in (n, i) order, exactly the scalar loop
///   sum += x; sq_sum += double(x) * x;
/// the kernels only run several channels' chains side by side in vector
/// lanes.
void channel_moments(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                     const float* x, double* sum, double* sq_sum);

/// BatchNorm's parameter gradients, per channel in (n, i) order from +0:
///   dgamma += double(dy) * x_hat; dbeta += dy;
void channel_grads(std::int64_t outer, std::int64_t channels, std::int64_t inner,
                   const float* dy, const float* x_hat, double* dgamma, double* dbeta);

/// One ISA variant of the kernels.
struct GemmKernels {
  /// "sse2", "avx2", or "generic" off x86.
  const char* isa;
  /// gemm_nn and gemm_tn.
  void (*nn)(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);
  void (*tn)(std::int64_t m_count, std::int64_t n_count, std::int64_t k_count, const float* a,
             const float* b, float* c);
  /// gemm_nt on A^T packed as at[k * ld + m], with ld a multiple of nt_rows
  /// and zeros in rows m >= m_count. gemm_nt below does the packing.
  void (*nt)(std::int64_t m_count, std::int64_t n_count, const float* at, std::int64_t ld,
             const NtRows& b, float* c);
  std::int64_t nt_rows;
  /// channel_moments and channel_grads.
  void (*moments)(std::int64_t outer, std::int64_t channels, std::int64_t inner, const float* x,
                  double* sum, double* sq_sum);
  void (*grads)(std::int64_t outer, std::int64_t channels, std::int64_t inner, const float* dy,
                const float* x_hat, double* dgamma, double* dbeta);
};

enum class GemmIsa { kBaseline, kAvx2 };

/// The variant built for \p isa, or nullptr when this build or this CPU
/// lacks it. The baseline is always there.
const GemmKernels* gemm_kernels_for(GemmIsa isa);

/// The variant gemm_nn / gemm_nt / gemm_tn and the channel reductions run:
/// the widest one this CPU supports, chosen once per process.
const GemmKernels& gemm_kernels();

/// gemm_nt through the given variant.
void gemm_nt(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
             std::int64_t k_count, const float* a, const float* b, float* c);
void gemm_nt(const GemmKernels& kernels, std::int64_t m_count, std::int64_t n_count,
             const float* a, const NtRows& b, float* c);

}  // namespace adaflow::nn
